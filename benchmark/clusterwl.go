package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scaled multiplies an operation count by the -scale factor, never below 1.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// jittered draws a message size in (size-size/64, size] — or, below 64
// bytes, in [size, size+4): the seed moves the model clock a little on every
// run, but never across a packet boundary and never by enough to change how
// much work the run is.
func jittered(rng *rand.Rand, size int) int {
	if size < 64 {
		return size + rng.Intn(4)
	}
	return size - rng.Intn(size/64)
}

// spreadRoots places n roots at the middle of each n-quantile of the ID
// space — spread over the fabric and, on a partitioned fabric, over the
// shards. Roots belong to the workload, not to the seed: where a tree sits
// on the topology moves the event count by 10% and the latencies by more,
// and the seed must not change how much work a run is.
func spreadRoots(n, hosts int) []fabric.NodeID {
	roots := make([]fabric.NodeID, n)
	for i := range roots {
		roots[i] = fabric.NodeID((2*i + 1) * hosts / (2 * n))
	}
	return roots
}

// mcastGroup generates one group's messages.
func mcastGroup(rng *rand.Rand, i int, root fabric.NodeID, port gm.PortID, msgs, size int) groupSpec {
	g := groupSpec{id: gm.GroupID(1 + i), root: root, port: port}
	for k := 0; k < msgs; k++ {
		g.msgs = append(g.msgs, makePayload(rng, jittered(rng, size)))
	}
	return g
}

// newScenario generates a cluster workload's inputs from the seed.
func newScenario(name string, seed int64, scale float64) (*scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{seed: seed}
	switch name {
	case wlStorm:
		sc.nodes = 512
		sc.groups = []groupSpec{mcastGroup(rng, 0, spreadRoots(1, sc.nodes)[0], 1, scaled(stormMsgs, scale), 1024)}
	case wlBulk:
		sc.nodes, sc.clos, sc.shards, sc.hostAck = 1024, true, 2, true
		n := scaled(bulkMsgs, scale)
		for i, root := range spreadRoots(bulkGroups, sc.nodes) {
			sc.groups = append(sc.groups, mcastGroup(rng, i, root, gm.PortID(1+i), n, 32<<10))
		}
	case wlInstall:
		sc.nodes, sc.installTimed = 2048, true
		n := scaled(installGroups, scale)
		for i, root := range spreadRoots(n, sc.nodes) {
			g := mcastGroup(rng, i, root, 1, 1, 1024)
			g.optimal = i%2 == 1
			sc.groups = append(sc.groups, g)
		}
	case wlLossy:
		sc.nodes, sc.lossRate = 256, 0.01
		n := scaled(lossyMsgs, scale)
		for i, root := range spreadRoots(2, sc.nodes) {
			sc.groups = append(sc.groups, mcastGroup(rng, i, root, gm.PortID(1+i), n, 4096))
		}
		// The point-to-point mix and the collectives run beside the first
		// half of the multicast streams (a 4 KB multicast takes roughly
		// lossyUsPerMsg under 1% loss), so all three traffic classes overlap
		// and the multicasts set the makespan. The generated schedule is
		// stretched to end exactly there: its own length is a maximum over
		// sources and would otherwise move the makespan by 30% between seeds.
		span := sim.Time(n) * lossyUsPerMsg * sim.Microsecond / 2
		var err error
		sc.unicast, err = workload.Generate(workload.Spec{
			Nodes: sc.nodes, Pattern: workload.Uniform, Messages: scaled(lossyUnicasts, scale),
			MeanSize: 1024, Sizes: workload.Bimodal, MeanGap: sim.Millisecond,
		}, sim.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		var last sim.Time
		for _, m := range sc.unicast {
			last = max(last, m.At)
		}
		for i := range sc.unicast {
			sc.unicast[i].At = sim.Time(float64(sc.unicast[i].At) * float64(span) / float64(last))
		}
		for _, m := range sc.unicast {
			sc.unicastData = append(sc.unicastData, makePayload(rng, m.Size))
			sc.maxUni = max(sc.maxUni, m.Size)
		}
		sc.collRounds = scaled(lossyCollRounds, scale)
		sc.collGap = span / sim.Time(sc.collRounds)
		for k := 0; k < sc.collRounds; k++ {
			round := make([][]int64, sc.nodes)
			for n := range round {
				round[n] = []int64{rng.Int63n(1 << 40), int64(k), int64(n), 1}
			}
			sc.collVecs = append(sc.collVecs, round)
		}
	default:
		return nil, fmt.Errorf("no cluster workload %q", name)
	}
	for _, g := range sc.groups {
		for _, m := range g.msgs {
			sc.maxMsg = max(sc.maxMsg, len(m))
		}
	}
	return sc, nil
}

// Base operation counts at -scale 1, sized so one repetition takes one to
// two seconds on the 2-core reference box.
const (
	stormMsgs       = 200
	bulkMsgs        = 3
	bulkGroups      = 4
	installGroups   = 4
	lossyMsgs       = 150
	lossyUnicasts   = 3000
	lossyCollRounds = 6
	lossyUsPerMsg   = 600
)

// clusterWL is a cluster workload's rep: setup/run/verify/teardown over the
// scenario runner.
type clusterWL struct {
	sc     *scenario
	traced bool
	tr     *tracer
	spin   int // self-check: steps of spin to burn in a fire hook per event

	r      *clusterRep
	reg    *metrics.Registry
	before metrics.Snapshot // registry at the start of the timed section
	ev0    uint64
	vStart sim.Time

	// Captured for layers, which runs after teardown.
	links         int              // directed links of the fabric
	diff          metrics.Snapshot // registry growth over the timed section
	shard0, shard sim.ShardStats   // coordinator accounting before and after it
	teardownS     float64
}

func (w *clusterWL) setup() error {
	w.r = &clusterRep{sc: w.sc, tr: w.tr}
	if w.traced {
		w.reg = metrics.New()
	}
	if err := w.r.setup(w.reg); err != nil {
		return err
	}
	if w.traced {
		if w.r.c.Eng != nil {
			w.r.acct = newStepAcct(w.r.c.Net)
		}
		w.before = w.reg.Snapshot()
		w.links = len(w.r.c.Net.Links())
	}
	if sh := w.r.c.Sharded(); sh != nil {
		w.shard0 = sh.Stats() // always-on accounting: costs an untraced run nothing
	}
	w.ev0 = w.r.c.EventsFired()
	return nil
}

// spin burns CPU for n steps of a dependent multiply chain. It reads no
// clock: a timestamp read waits for every load in flight, which would cost
// a busy event loop far more than it costs a calibration loop.
func spin(n int) uint64 {
	x := uint64(n)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// spinSink keeps the compiler from discarding spin's result.
var spinSink uint64

func (w *clusterWL) run() {
	if n := w.spin; n > 0 {
		// One sink per engine, a cache line apart: shards run on their own
		// goroutines.
		sinks := make([][8]uint64, len(w.r.c.Engines()))
		for i, e := range w.r.c.Engines() {
			sink := &sinks[i][0]
			e.SetFireHook(func(sim.Time, uint64) { *sink += spin(n) })
		}
	}
	w.vStart = w.r.timed()
	if w.spin > 0 {
		for _, e := range w.r.c.Engines() {
			e.SetFireHook(nil)
		}
	}
}

func (w *clusterWL) verify() outcome {
	r := w.r
	out := outcome{tally: r.led.settle(), makespanNs: int64(r.makespan(w.vStart)),
		events: r.c.EventsFired() - w.ev0}
	if live := r.c.LiveProcs(); live != 0 {
		// A stalled process: its undelivered operations already count as
		// failed; make sure a stall never passes silently.
		out.failed = max(out.failed, 1)
	}
	if w.sc.lossRate == 0 {
		if n := r.retransmits(); n != 0 {
			out.failed += int(n) // a loss-free fabric must never retransmit
			out.notes = append(out.notes, fmt.Sprintf(
				"%d retransmissions without fabric loss: %d receive-token drops, %d NIC-buffer drops, %d out-of-order drops",
				n, r.counter("core", "no_token_drops")+r.counter("gm", "no_token_drops"),
				r.counter("lanai", "rx_nobuffer"), r.counter("core", "out_of_order_drops")+r.counter("gm", "out_of_order_drops")))
		}
	}
	if sh := r.c.Sharded(); sh != nil {
		w.shard = sh.Stats()
		for i, busy := range w.shard.BusyNs {
			out.shardBusyS += float64(busy-w.shard0.BusyNs[i]) / 1e9
		}
	}
	if w.traced {
		w.diff = w.reg.Snapshot().Diff(w.before)
	}
	return out
}

func (w *clusterWL) teardown() {
	t0 := time.Now()
	w.r.c.Kill()
	w.r.c = nil
	w.teardownS = time.Since(t0).Seconds()
}
