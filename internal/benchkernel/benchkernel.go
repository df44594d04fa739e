// Package benchkernel holds workload bodies that more than one caller runs,
// so every caller measures the same loop: the event-kernel and packet-storm
// loops behind `go test -bench` in internal/sim (the repo benchmark times
// PacketStorm as its isolated fabric kernel), the sweep-runner pair behind
// the root package's benchmarks, and the single-run multicast storm that
// `mcast scale -matrix` times and the storm goldens and ack-economy test pin.
package benchkernel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// window is the number of outstanding events the scheduling kernels keep
// in the heap — deep enough that sift costs are realistic, small enough
// that the workload stays cache-resident.
const window = 64

// Schedule measures steady-state schedule+fire throughput on the live
// kernel: every iteration fires the earliest of window outstanding events
// and schedules a replacement, so the arena free list is exercised on
// every operation.
func Schedule(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	fn := func() {}
	for i := 0; i < window; i++ {
		eng.After(sim.Time(i+1), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		eng.After(window, fn)
	}
}

// CancelReschedule measures the retransmit-timer pattern: arm, push the
// deadline out, give up, and advance — the lifecycle every reliable-send
// path puts its timer through.
func CancelReschedule(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	tm := eng.NewTimer(func() {})
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(eng.Now() + 100)
		tm.Reset(eng.Now() + 200)
		tm.Stop()
		eng.After(1, fn)
		eng.Step()
	}
}

// The queue mix's shape, from the 512-host multicast storm's queue: about
// 250 events pending, 88 % of them due within 4 µs (packet hops, DMA and
// CPU steps) and 12 % timers 0.25-1 ms out (retransmit and delayed-ack).
const (
	mixNear   = 220
	mixTimers = 30
)

// QueueMix measures the event queue under the mix the workloads build,
// where Schedule's 64 events 1 ns apart do not: every near event fires and
// schedules its successor 0-4 µs on, every timer re-arms 0.25-1 ms on when
// it fires, and per 100 fired events 3 timers are stopped and re-armed (a
// cancel) and 1 is pushed out (a reschedule). One op is one fired event.
func QueueMix(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	x := uint64(1)
	draw := func(n int64) int64 { // an LCG: the mix, not the generator, is timed
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x>>33) % n
	}
	near := func() sim.Time { return sim.Time(draw(4096)) }
	far := func() sim.Time { return 250*sim.Microsecond + sim.Time(draw(int64(750*sim.Microsecond))) }
	var hop func()
	hop = func() { eng.After(near(), hop) }
	timers := make([]*sim.Timer, mixTimers)
	for i := range timers {
		timers[i] = eng.NewTimer(func() { timers[i].ResetAfter(far()) })
		timers[i].ResetAfter(far())
	}
	for range mixNear {
		eng.After(near(), hop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		switch r := draw(100); {
		case r < 3:
			tm := timers[draw(mixTimers)]
			tm.Stop()
			tm.ResetAfter(far())
		case r < 4:
			timers[draw(mixTimers)].ResetAfter(far())
		}
	}
}

// stormHosts and stormSize shape the packet-heavy fabric benchmark.
const (
	stormHosts = 8
	stormSize  = 256
)

// PacketStorm measures the fabric hot path end to end: every host on one
// crossbar sends a packet to its neighbor and the engine drains the
// resulting hop and delivery events. One iteration is one such wave
// (stormHosts packets, two link traversals each).
func PacketStorm(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, stormHosts, fabric.DefaultLinkParams())
	delivered := 0
	for i := 0; i < stormHosts; i++ {
		net.Iface(fabric.NodeID(i)).Deliver = func(*fabric.Packet) { delivered++ }
	}
	pkts := make([]*fabric.Packet, stormHosts)
	for i := range pkts {
		pkts[i] = &fabric.Packet{
			Src:  fabric.NodeID(i),
			Dst:  fabric.NodeID((i + 1) % stormHosts),
			Size: stormSize,
		}
	}
	wave := func() {
		for _, p := range pkts {
			net.Iface(p.Src).Inject(p)
		}
		eng.Run()
	}
	wave() // warm the arena and transit pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// Multicast storm — the intra-run scaling workload the conservative PDES
// mode targets: one NIC-based broadcast group spanning every node, root
// pumping pipelined multicasts through it.
const (
	mcastGroup = 7
	mcastPort  = 1
)

// MulticastStormStats builds a cluster on fabric fc (the zero Config selects
// Myrinet), partitioned across `shards` engines when shards > 1, installs a
// binomial broadcast group over all nodes, and drives msgs pipelined root
// multicasts of size bytes. It returns the final virtual clock, which the
// PDES determinism contract makes identical across shard counts, and the
// shard coordinator's statistics — per-shard fired events, window counts,
// cross-shard events, stretched/inline windows, the critical path and
// wall-clock barrier-wait accounting. A serial run (shards <= 1) reports one
// shard's fired events and nothing else. Extra cluster options apply on top
// of the storm defaults.
func MulticastStormStats(fc fabric.Config, nodes, shards, msgs, size int, extra ...cluster.Option) (sim.Time, sim.ShardStats) {
	opts := []cluster.Option{cluster.WithShards(shards), cluster.WithSeed(1)}
	if fc.Valid() {
		opts = append(opts, cluster.WithFabric(fc))
	}
	opts = append(opts, extra...)
	c := cluster.New(nodes, opts...)
	ports := c.OpenPorts(mcastPort)
	ready := c.InstallGroup(mcastGroup, tree.Binomial(0, c.Members()), mcastPort, mcastPort)
	for i := 1; i < nodes; i++ {
		port := ports[i]
		c.SpawnOn(fabric.NodeID(i), "recv", func(p *sim.Proc) {
			port.ProvideN(msgs+2, size+256)
			for got := 0; got < msgs; got++ {
				port.Recv(p)
			}
		})
	}
	// Phase 1: run to quiescence so the install-completion flags are behind
	// the sharded barrier before being read.
	c.Run()
	if !ready() {
		panic("benchkernel: group install incomplete after quiescence")
	}
	payload := make([]byte, size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for i := 0; i < msgs; i++ {
			ext.McastSync(p, ports[0], mcastGroup, payload)
		}
	})
	c.Run()
	end := c.Now()
	st := sim.ShardStats{Shards: 1, Events: []uint64{c.EventsFired()}}
	if sh := c.Sharded(); sh != nil {
		st = sh.Stats()
	}
	c.Kill()
	return end, st
}

// MulticastStormCounters runs the storm with a private metrics registry
// wired through every layer and returns the final virtual clock plus the
// counter snapshot — the ack-economy evaluation reads ack/packet counts
// from it. Extra cluster options (e.g. WithAckEconomy) apply on top of the
// storm defaults. Serial engine only: the registry is unsynchronized.
func MulticastStormCounters(fc fabric.Config, nodes, msgs, size int, extra ...cluster.Option) (sim.Time, metrics.Snapshot) {
	reg := metrics.New()
	virt, _ := MulticastStormStats(fc, nodes, 1, msgs, size, append([]cluster.Option{cluster.WithMetrics(reg)}, extra...)...)
	return virt, reg.Snapshot()
}

// sweepOptions returns the reduced-size options the sweep benchmarks use:
// large enough to dominate goroutine fan-out costs, small enough to run
// in CI.
func sweepOptions(workers int) harness.Options {
	o := harness.DefaultOptions()
	o.Warmup = 2
	o.Iters = 8
	o.SkewIters = 8
	o.Workers = workers
	return o
}

// sweepPoints is the Figure 5 sweep the benchmarks measure: 8 nodes,
// every message size up to 4 KB.
func sweepPoints() []harness.Point {
	var pts []harness.Point
	for _, s := range harness.MessageSizes(4096) {
		pts = append(pts, harness.Point{Nodes: 8, Size: s})
	}
	return pts
}

// SweepSerial runs the Figure 5 GM-level sweep with the parallel runner
// forced serial.
func SweepSerial(b *testing.B) {
	o := sweepOptions(1)
	pts := sweepPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := o.Sweep(pts, harness.Sides(o.MulticastHB, o.MulticastNB)); len(s) != len(pts) {
			b.Fatal("short sweep")
		}
	}
}

// SweepParallel runs the same sweep fanned across GOMAXPROCS workers.
func SweepParallel(b *testing.B) {
	o := sweepOptions(0)
	pts := sweepPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := o.Sweep(pts, harness.Sides(o.MulticastHB, o.MulticastNB)); len(s) != len(pts) {
			b.Fatal("short sweep")
		}
	}
}
