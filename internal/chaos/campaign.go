package chaos

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Port and Group are the GM endpoint ids every campaign uses.
const (
	Port  gm.PortID  = 1
	Group gm.GroupID = 1
)

// Config parameterizes one scenario run. The zero value gets sensible
// campaign defaults from withDefaults.
type Config struct {
	// Nodes is the cluster size; Msgs multicast messages of Size bytes are
	// streamed from node 0 down a Fanout-ary tree (fanout 2 guarantees
	// interior forwarding nodes from 4 nodes up).
	Nodes  int
	Msgs   int
	Size   int
	Fanout int

	// Seed feeds both the cluster RNG and (hashed with the scenario name)
	// the injector RNG. Same seed, same scenario, same result — always.
	Seed int64

	// Deadline bounds the faulted run in virtual time; a protocol that has
	// not quiesced by then failed to recover.
	Deadline sim.Time

	// Metrics, when non-nil, also receives the faulted run's instrument
	// traffic (for -metrics reporting). The invariant checker always uses
	// a private registry-backed snapshot diff, so this is optional — but a
	// shared registry is unsynchronized, so it forces serial campaigns.
	Metrics *metrics.Registry

	// Shards runs each scenario's clusters on a conservative parallel
	// engine (0 or 1 = serial). Only stateless fault rules — unconditional
	// drop windows, every-packet reordering, NIC pauses — are compatible;
	// a stochastic scenario panics with fabric.ErrShardsStateful at install time.
	Shards int

	// Fabric selects the interconnect backend the campaign runs over (the
	// zero value: the classic Myrinet fabric). The invariant set is
	// fabric-agnostic, so the same scenarios validate every backend.
	Fabric fabric.Config

	// AckEvery > 1 runs every scenario with the full ack economy enabled
	// (cumulative acks every AckEvery packets, piggybacking, and tree ack
	// aggregation), proving the fault invariants hold with coalescing on.
	// 0 or 1 keeps the per-packet ack default.
	AckEvery int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Msgs <= 0 {
		c.Msgs = 12
	}
	if c.Size <= 0 {
		c.Size = 10000
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = 500 * sim.Millisecond
	}
	return c
}

// Scenario is one named fault script. Inject installs the faults; the
// runner supplies the cluster, the multicast tree, and a seeded injector
// through the Fault context. A nil Inject is a fault-free baseline.
type Scenario struct {
	Name string
	Desc string

	// Nacks/Adaptive select the recovery configuration under test (fast
	// recovery via nacks, RTT-adaptive timeouts).
	Nacks    bool
	Adaptive bool

	Inject func(f *Fault)
}

// Fault is the context a scenario's Inject runs in.
type Fault struct {
	Inj     *Injector
	Cluster *cluster.Cluster
	Tree    *tree.Tree
	Cfg     Config

	// CleanSpan is the fault-free baseline's completion time on this exact
	// cluster, measured by the run that always precedes fault injection.
	// Scenarios place their windows relative to it (see At), so the same
	// script stresses live traffic on a microsecond-scale Clos run and a
	// millisecond-scale Myrinet one alike.
	CleanSpan sim.Time
}

// At maps a fraction of the fault-free run's span to an absolute virtual
// time: At(0.3) lands 30% into live traffic on any fabric, At(1.5) in the
// recovery tail. Hard-coded microsecond windows tuned to one fabric's
// speed miss the whole run on a faster one.
func (f *Fault) At(frac float64) sim.Time {
	return sim.Time(float64(f.CleanSpan) * frac)
}

// InteriorNode returns the first non-root tree node that has children —
// the forwarding node whose failure hurts an entire subtree.
func (f *Fault) InteriorNode() fabric.NodeID {
	for _, n := range f.Tree.Nodes() {
		if n != f.Tree.Root && len(f.Tree.Children(n)) > 0 {
			return n
		}
	}
	// Degenerate tree (too small for interior nodes): fall back to the
	// last leaf so the scenario still exercises an outage.
	return f.LeafNode()
}

// RootSwitch returns the label of the switch the multicast root attaches
// to — the fabric-generic spelling of "the crossbar goes dark" ("xbar0"
// on a single-switch Myrinet fabric, "tor0" or a leaf on a Clos), so
// switch-outage scenarios bite on every backend.
func (f *Fault) RootSwitch() string {
	return f.Cluster.Net.Iface(f.Tree.Root).Uplink().ToLabel()
}

// LeafNode returns the last tree node without children — deterministic,
// and never the root.
func (f *Fault) LeafNode() fabric.NodeID {
	nodes := f.Tree.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		if len(f.Tree.Children(nodes[i])) == 0 {
			return nodes[i]
		}
	}
	return nodes[len(nodes)-1]
}

// Result is one scenario's verdict: the invariant violations (empty on
// pass), recovery latency versus the fault-free baseline, and the fault
// and recovery traffic observed.
type Result struct {
	Scenario string
	Desc     string
	Nodes    int
	Msgs     int
	Size     int

	Pass       bool
	Violations []string

	// CleanFinish is the fault-free completion time, FaultFinish the
	// faulted one; Recovery is the difference — the time the fault cost.
	CleanFinish sim.Time
	FaultFinish sim.Time
	Recovery    sim.Time

	// Fault-run traffic: fabric drops and duplicates, NIC-paused discards,
	// receive-buffer overruns, and the protocol's recovery work.
	Drops       uint64
	Dups        uint64
	PausedDrops uint64
	RxNoBuffer  uint64
	Retransmits uint64
	Timeouts    uint64
	Nacks       uint64

	// Rules reports per-fault-rule activation counts.
	Rules []RuleHit
}

// RunScenario executes one scenario: a fault-free baseline run (for the
// recovery-latency reference) and the faulted run, both checked against
// the full invariant set.
func RunScenario(sc Scenario, cfg Config) Result {
	cfg = cfg.withDefaults()
	clean := runOnce(sc, cfg, false, 0)
	fault := runOnce(sc, cfg, true, clean.finish)

	res := Result{
		Scenario:    sc.Name,
		Desc:        sc.Desc,
		Nodes:       cfg.Nodes,
		Msgs:        cfg.Msgs,
		Size:        cfg.Size,
		CleanFinish: clean.finish,
		FaultFinish: fault.finish,
		Drops:       fault.drops,
		Dups:        fault.dups,
		PausedDrops: fault.pausedDrops,
		RxNoBuffer:  fault.rxNoBuffer,
		Retransmits: fault.retransmits,
		Timeouts:    fault.timeouts,
		Nacks:       fault.nacks,
		Rules:       fault.rules,
	}
	if res.FaultFinish > res.CleanFinish {
		res.Recovery = res.FaultFinish - res.CleanFinish
	}
	for _, v := range clean.violations {
		res.Violations = append(res.Violations, "baseline: "+v)
	}
	res.Violations = append(res.Violations, fault.violations...)
	res.Pass = len(res.Violations) == 0
	return res
}

// outcome is one run's raw observations.
type outcome struct {
	finish     sim.Time
	violations []string

	drops, dups, pausedDrops, rxNoBuffer uint64
	retransmits, timeouts, nacks         uint64
	rules                                []RuleHit
}

// scenarioSeed mixes the campaign seed with an FNV-1a hash of the scenario
// name so each scenario gets an independent but reproducible fault stream.
func scenarioSeed(seed int64, name string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h&0x7fffffffffffffff)
}

// Payload builds the deterministic byte pattern of message idx — receivers
// recompute it to verify every byte arrived intact and in the right
// message slot.
func Payload(idx, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(idx*131 + i*29 + 7)
	}
	return b
}

// runOnce builds a fresh cluster, streams the multicast workload under the
// scenario's faults (if faulted), and checks the invariant set.
func runOnce(sc Scenario, cfg Config, faulted bool, cleanSpan sim.Time) outcome {
	// The baseline always uses a private registry; the faulted run uses
	// the caller's shared one when provided (counter diffs isolate it).
	reg := cfg.Metrics
	if reg == nil || !faulted {
		reg = metrics.New()
	}
	ccfg := cluster.DefaultConfig(cfg.Nodes)
	if cfg.Fabric.Valid() {
		ccfg.Fabric = cfg.Fabric
		ccfg.Link = cfg.Fabric.Links
	}
	ccfg.Seed = cfg.Seed
	ccfg.Metrics = reg
	ccfg.Shards = cfg.Shards
	ccfg.GM.EnableNacks = sc.Nacks
	ccfg.GM.AdaptiveRTO = sc.Adaptive
	cluster.WithAckEconomy(cfg.AckEvery)(ccfg)
	c := cluster.NewFromConfig(ccfg)
	ports := c.OpenPorts(Port)
	tr := tree.KAry(0, c.Members(), cfg.Fanout)
	c.InstallGroup(Group, tr, Port, Port)

	var inj *Injector
	if faulted && sc.Inject != nil {
		inj = NewInjector(c.Net, scenarioSeed(cfg.Seed, sc.Name))
		sc.Inject(&Fault{Inj: inj, Cluster: c, Tree: tr, Cfg: cfg, CleanSpan: cleanSpan})
	}

	msgs := make([][]byte, cfg.Msgs)
	for i := range msgs {
		msgs[i] = Payload(i, cfg.Size)
	}

	// Per-node violation lists, merged in node order after the run so the
	// report is deterministic regardless of event interleaving.
	nodeViol := make([][]string, cfg.Nodes)
	finish := make([]sim.Time, cfg.Nodes)
	for _, n := range tr.Nodes() {
		if n == tr.Root {
			continue
		}
		n := n
		c.SpawnOn(n, "chaos-recv", func(p *sim.Proc) {
			ports[n].ProvideN(cfg.Msgs, cfg.Size)
			for i := 0; i < cfg.Msgs; i++ {
				ev := ports[n].Recv(p)
				if ev.MsgID != uint64(i+1) {
					nodeViol[n] = append(nodeViol[n], fmt.Sprintf(
						"node %d: delivery %d carried msg id %d — lost, duplicated, or reordered message",
						n, i+1, ev.MsgID))
				} else if !bytes.Equal(ev.Data, msgs[i]) {
					nodeViol[n] = append(nodeViol[n], fmt.Sprintf(
						"node %d: msg %d payload corrupted", n, i+1))
				}
			}
			finish[n] = p.Now()
		})
	}
	c.SpawnOn(tr.Root, "chaos-root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for i := 0; i < cfg.Msgs; i++ {
			ext.Mcast(p, ports[0], Group, msgs[i])
		}
		for i := 0; i < cfg.Msgs; i++ {
			ports[0].WaitSendDone(p)
		}
		finish[0] = p.Now()
	})

	before := reg.Snapshot()
	c.RunUntil(cfg.Deadline)

	var out outcome
	for _, t := range finish {
		if t > out.finish {
			out.finish = t
		}
	}
	for _, vs := range nodeViol {
		out.violations = append(out.violations, vs...)
	}
	out.violations = append(out.violations, checkQuiescence(c, cfg)...)
	out.violations = append(out.violations, checkResources(c, ports, ccfg)...)

	d := reg.Snapshot().Diff(before)
	out.violations = append(out.violations, checkAccounting(d, cfg, ccfg)...)
	out.drops = d.CounterSum("net", "dropped")
	out.dups = d.CounterSum("net", "duplicated")
	out.pausedDrops = d.CounterSum("lanai", "rx_paused_drops")
	out.rxNoBuffer = d.CounterSum("lanai", "rx_nobuffer")
	out.retransmits = d.CounterSum("core", "retransmits") + d.CounterSum("gm", "retransmits")
	out.timeouts = d.CounterSum("core", "timeouts") + d.CounterSum("gm", "timeouts")
	out.nacks = d.CounterSum("core", "mcast_nacks_sent") + d.CounterSum("gm", "nacks_sent")
	if inj != nil {
		out.rules = inj.RuleHits()
	}

	c.Kill()
	return out
}

// checkQuiescence verifies the run fully drained before the deadline: no
// process still blocked (a starved receiver means a lost message; a stuck
// root means send tokens never came back) and no event still scheduled (an
// armed retransmit timer past quiescence means a leaked send record).
func checkQuiescence(c *cluster.Cluster, cfg Config) []string {
	var v []string
	if n := c.LiveProcs(); n != 0 {
		v = append(v, fmt.Sprintf(
			"did not recover by deadline %v: %d processes still blocked", cfg.Deadline, n))
	}
	if n := c.Pending(); n != 0 {
		v = append(v, fmt.Sprintf(
			"%d events still scheduled after quiescence (leaked timer or unfinished recovery)", n))
	}
	return v
}

// checkResources verifies every NIC-level resource returned to its idle
// state: all send records retired, all retransmit timers disarmed, all
// lanai packet buffers back in their pools, and every host-level send
// token returned.
func checkResources(c *cluster.Cluster, ports []*gm.Port, ccfg *cluster.Config) []string {
	var v []string
	for i, n := range c.Nodes {
		if r := n.NIC.OutstandingRecords(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d unicast send records leaked", i, r))
		}
		if t := n.NIC.PendingRetransmitTimers(); t != 0 {
			v = append(v, fmt.Sprintf("node %d: %d unicast retransmit timers still armed", i, t))
		}
		if t := n.NIC.PendingAckTimers(); t != 0 {
			v = append(v, fmt.Sprintf("node %d: %d delayed-ack timers still armed (coalesced ack leaked)", i, t))
		}
		if n.Ext != nil {
			if r := n.Ext.OutstandingRecords(); r != 0 {
				v = append(v, fmt.Sprintf("node %d: %d multicast send records leaked", i, r))
			}
			if t := n.Ext.PendingGroupTimers(); t != 0 {
				v = append(v, fmt.Sprintf("node %d: %d group retransmit timers still armed", i, t))
			}
			if t := n.Ext.PendingAckTimers(); t != 0 {
				v = append(v, fmt.Sprintf("node %d: %d aggregate-ack timers still armed (coalesced ack leaked)", i, t))
			}
		}
		if free, cap := n.HW.SendBufs.Free(), n.HW.SendBufs.Cap(); free != cap {
			v = append(v, fmt.Sprintf("node %d: %d/%d NIC send buffers leaked", i, cap-free, cap))
		}
		if free, cap := n.HW.RecvBufs.Free(), n.HW.RecvBufs.Cap(); free != cap {
			v = append(v, fmt.Sprintf("node %d: %d/%d NIC recv buffers leaked", i, cap-free, cap))
		}
		if q := n.HW.SendBufs.Queued() + n.HW.RecvBufs.Queued(); q != 0 {
			v = append(v, fmt.Sprintf("node %d: %d buffer waiters still queued", i, q))
		}
		if n.HW.Paused() {
			v = append(v, fmt.Sprintf("node %d: NIC still paused after run", i))
		}
		if got, want := ports[i].FreeSendTokens(), ccfg.GM.SendTokens; got != want {
			v = append(v, fmt.Sprintf("node %d: %d/%d send tokens not returned", i, want-got, want))
		}
		if r := ports[i].PendingRecvs(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d extra deliveries queued (duplicate accepted?)", i, r))
		}
	}
	return v
}

// checkAccounting verifies the metrics agree with the workload: the fabric
// conserved packets (every injected or duplicated packet was either
// delivered or dropped) and the receivers accepted exactly the workload's
// packet count — no more (duplicates accepted), no less (loss papered
// over).
func checkAccounting(d metrics.Snapshot, cfg Config, ccfg *cluster.Config) []string {
	var v []string
	injected := d.CounterSum("net", "injected")
	duplicated := d.CounterSum("net", "duplicated")
	delivered := d.CounterSum("net", "delivered")
	dropped := d.CounterSum("net", "dropped")
	if injected+duplicated != delivered+dropped {
		v = append(v, fmt.Sprintf(
			"fabric accounting broken: injected %d + duplicated %d != delivered %d + dropped %d",
			injected, duplicated, delivered, dropped))
	}
	want := uint64(cfg.Nodes-1) * uint64(cfg.Msgs) * uint64(ccfg.GM.Packets(cfg.Size))
	if got := d.CounterSum("core", "mcast_received"); got != want {
		v = append(v, fmt.Sprintf(
			"receivers accepted %d multicast packets, workload requires exactly %d", got, want))
	}
	return v
}
