package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// dataPort is the GM port every workload moves its data over.
const dataPort gm.PortID = 1

// Config parameterizes one scenario run, whatever the workload. The zero
// value gets campaign defaults; a workload's own parameters (message
// count, rounds, churn rate) are fields of the Workload value.
type Config struct {
	// Nodes is the cluster size (default 8).
	Nodes int

	// Seed feeds the cluster RNG and (hashed with the scenario name) the
	// injector RNG. Same seed, same scenario, same result — always.
	Seed int64

	// Deadline bounds each run in virtual time; a protocol that has not
	// quiesced by then failed to recover. Zero takes the workload's default.
	Deadline sim.Time

	// Metrics, when non-nil, also receives the faulted run's instrument
	// traffic (for -metrics reporting). The invariant checker always uses
	// a snapshot diff, so this is optional — but a shared registry is
	// unsynchronized, so it forces serial campaigns.
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

func (c Config) withDefaults(w Workload) Config {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = w.Deadline()
	}
	return c
}

// Workload is the traffic a campaign holds to its invariant under faults:
// the multicast stream (Multicast), rounds of NIC collectives (Collective)
// or a multicast stream under membership churn (Churn). The runner owns
// everything a run repeats — cluster, injector, baseline, counters and the
// quiescence, resource and conservation checks — and asks the workload
// only for what differs.
type Workload interface {
	// MinNodes is the smallest cluster the workload can run on; a CLI
	// rejects anything smaller as a usage error.
	MinNodes() int
	// Deadline is the default bound on one run in virtual time.
	Deadline() sim.Time
	// Params reports the parameters that tell this workload's campaign
	// points apart beyond scenario and cluster size, defaults applied —
	// they become columns of the campaign table.
	Params() []Stat
	// Plan builds one run's inputs — everything that needs no cluster — so
	// an unusable parameter is reported before a cluster exists.
	Plan(cfg Config) (Job, error)
}

// Job is one run of a workload, on the cluster in the Env it is handed.
type Job interface {
	// Prepare opens ports and installs and settles groups, and calls
	// env.Inject once, at the point of that sequence where the scenario's
	// faults go in. The order is the workload's and is load-bearing:
	// PauseNIC schedules its events at inject time, and an event's key is
	// (time, domain<<48|seq). It returns the data ports, one per node, for
	// the runner's resource audit.
	Prepare(env *Env) ([]*gm.Port, error)
	// Drive spawns the workload's processes and runs the cluster to
	// env.Cfg.Deadline, returning when the last of them finished (zero if
	// the deadline came first) and every delivery violation it saw.
	Drive(env *Env) (finish sim.Time, violations []string)
	// Check holds the finished run to the workload's own invariant, given
	// the run's metrics delta, and reports its named counters.
	Check(env *Env, diff metrics.Snapshot) (violations []string, counters []Stat)
}

// Stat is one named number of a run: a workload parameter or counter.
type Stat struct {
	Name  string
	Value uint64
}

// Env is the runner's side of one run.
type Env struct {
	Cluster *cluster.Cluster
	Cfg     Config // defaults applied

	sc        Scenario
	cleanSpan sim.Time
	inj       *Injector
}

// Inject installs the scenario's faults, aimed at root and — when the
// workload has one static multicast tree — tr. It does nothing on a
// fault-free run, so no injector hook slows the baseline.
func (e *Env) Inject(root fabric.NodeID, tr *tree.Tree) {
	if e.sc.Inject == nil {
		return
	}
	e.inj = NewInjector(e.Cluster.Net, ScenarioSeed(e.Cfg.Seed, e.sc.Name))
	e.sc.Inject(&Fault{Inj: e.inj, Cluster: e.Cluster, Root: root, Tree: tr, CleanSpan: e.cleanSpan})
}

// Scenario is one named fault script. Inject installs the faults; the
// runner supplies the cluster, the workload's root and tree, and a seeded
// injector through the Fault context. A nil Inject is a fault-free run.
type Scenario struct {
	Name string
	Desc string

	// Nacks/Adaptive select the recovery configuration under test (fast
	// recovery via nacks, RTT-adaptive timeouts).
	Nacks    bool
	Adaptive bool

	Inject func(f *Fault)
}

// Find returns the scenario of lib with the given name.
func Find(lib []Scenario, name string) (Scenario, bool) {
	for _, sc := range lib {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Fault is the context a scenario's Inject runs in.
type Fault struct {
	Inj     *Injector
	Cluster *cluster.Cluster

	// Root is the node the workload's traffic hangs off: the multicast
	// source, the collective trees' root, the membership coordinator.
	Root fabric.NodeID
	// Tree is the workload's static multicast tree. It is nil where there
	// is no single one to aim at — churn rebuilds the tree every epoch —
	// and those scenarios target nodes, links or the whole fabric.
	Tree *tree.Tree

	// CleanSpan is the fault-free baseline's completion time on this exact
	// cluster, measured by the run that always precedes fault injection.
	// Scenarios place their windows relative to it (see At), so the same
	// script stresses live traffic on a microsecond-scale Clos run and a
	// millisecond-scale Myrinet one alike. A scenario may instead place a
	// window in absolute virtual time, as the churn scenarios do: their
	// transitions are scheduled in absolute time too.
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

// RootSwitch returns the label of the switch the root attaches to — the
// fabric-generic spelling of "the crossbar goes dark" ("xbar0" on a
// single-switch Myrinet fabric, "tor0" or a leaf on a Clos), so
// switch-outage scenarios bite on every backend.
func (f *Fault) RootSwitch() string {
	return f.Cluster.Net.Iface(f.Root).Uplink().ToLabel()
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

// Outcome is one run's observations: when it finished, the invariant
// violations (empty on pass), and the fault and recovery traffic.
type Outcome struct {
	Finish     sim.Time
	Violations []string

	// Fabric drops and duplicates, NIC-paused discards, and the recovery
	// work of every reliability layer (collective stop-and-wait, multicast
	// tree, unicast).
	Drops       uint64
	Dups        uint64
	PausedDrops uint64
	Retransmits uint64
	Timeouts    uint64
	Nacks       uint64

	// Counters are the workload's own, in its fixed order.
	Counters []Stat

	// Rules reports per-fault-rule activation counts.
	Rules []RuleHit
}

// Counter returns the workload counter with the given name, 0 if the
// workload reports none.
func (o Outcome) Counter(name string) uint64 {
	for _, s := range o.Counters {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// Result is one scenario's verdict. The embedded Outcome is the faulted
// run's, except that Violations also lists the baseline's, prefixed
// "baseline: ".
type Result struct {
	Scenario string
	Desc     string
	Nodes    int
	Params   []Stat

	Pass bool

	// CleanFinish is the fault-free completion time; Recovery is how much
	// later the faulted run finished — the time the fault cost.
	CleanFinish sim.Time
	Recovery    sim.Time

	Outcome
}

// Run executes one scenario against a workload: a fault-free baseline (the
// recovery-latency reference, on a registry of its own) and the faulted
// run, both held to the full invariant set.
func Run(w Workload, sc Scenario, cfg Config) Result {
	cfg = cfg.withDefaults(w)
	// The baseline keeps the scenario's recovery configuration and name,
	// injects nothing, and never touches a shared registry.
	baseline, private := sc, cfg
	baseline.Inject, private.Metrics = nil, nil
	clean := RunOnce(w, baseline, private, 0)
	fault := RunOnce(w, sc, cfg, clean.Finish)

	res := Result{
		Scenario:    sc.Name,
		Desc:        sc.Desc,
		Nodes:       cfg.Nodes,
		Params:      w.Params(),
		CleanFinish: clean.Finish,
		Outcome:     fault,
	}
	if fault.Finish > clean.Finish {
		res.Recovery = fault.Finish - clean.Finish
	}
	res.Violations = nil
	for _, v := range clean.Violations {
		res.Violations = append(res.Violations, "baseline: "+v)
	}
	res.Violations = append(res.Violations, fault.Violations...)
	res.Pass = len(res.Violations) == 0
	return res
}

// ScenarioSeed mixes the campaign seed with an FNV-1a hash of the scenario
// name so each scenario gets an independent but reproducible fault stream.
func ScenarioSeed(seed int64, name string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h&0x7fffffffffffffff)
}

// RunOnce is a single run: it builds a fresh cluster, lets the workload
// prepare it and install sc's faults (windows placed against cleanSpan),
// drives it to the deadline and checks every invariant — the workload's
// own, and the ones every workload shares.
func RunOnce(w Workload, sc Scenario, cfg Config, cleanSpan sim.Time) Outcome {
	cfg = cfg.withDefaults(w)
	job, err := w.Plan(cfg)
	if err != nil {
		return Outcome{Violations: []string{err.Error()}}
	}

	reg := metrics.Ensure(cfg.Metrics)
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
	c := cluster.New(ccfg.Nodes, cluster.WithConfig(ccfg))
	defer c.Kill()

	env := &Env{Cluster: c, Cfg: cfg, sc: sc, cleanSpan: cleanSpan}
	ports, err := job.Prepare(env)
	if err != nil {
		return Outcome{Violations: []string{err.Error()}}
	}

	var out Outcome
	before := reg.Snapshot()
	out.Finish, out.Violations = job.Drive(env)
	d := reg.Snapshot().Diff(before)

	out.Violations = append(out.Violations, checkQuiescence(c, cfg.Deadline)...)
	out.Violations = append(out.Violations, checkResources(c, ports)...)
	out.Violations = append(out.Violations, checkConservation(d)...)
	v, counters := job.Check(env, d)
	out.Violations = append(out.Violations, v...)
	out.Counters = counters

	out.Drops = d.CounterSum("net", "dropped")
	out.Dups = d.CounterSum("net", "duplicated")
	out.PausedDrops = d.CounterSum("lanai", "rx_paused_drops")
	out.Retransmits = d.CounterSum("coll", "retransmits") +
		d.CounterSum("core", "retransmits") + d.CounterSum("gm", "retransmits")
	out.Timeouts = d.CounterSum("core", "timeouts") + d.CounterSum("gm", "timeouts")
	out.Nacks = d.CounterSum("core", "mcast_nacks_sent") + d.CounterSum("gm", "nacks_sent")
	if env.inj != nil {
		out.Rules = env.inj.RuleHits()
	}
	return out
}

// collect folds per-node finish times and violation lists into the run's:
// the latest finish, and the violations in node order.
func collect(finish []sim.Time, nodeViol [][]string) (last sim.Time, violations []string) {
	for _, t := range finish {
		if t > last {
			last = t
		}
	}
	for _, vs := range nodeViol {
		violations = append(violations, vs...)
	}
	return last, violations
}

// checkQuiescence verifies the run fully drained before the deadline: no
// process still blocked (a starved receiver means a lost message; a stuck
// root means send tokens never came back) and no event still scheduled (an
// armed retransmit timer past quiescence means a leaked send record).
func checkQuiescence(c *cluster.Cluster, deadline sim.Time) []string {
	var v []string
	if n := c.LiveProcs(); n != 0 {
		v = append(v, fmt.Sprintf(
			"did not recover by deadline %v: %d processes still blocked", deadline, n))
	}
	if n := c.Pending(); n != 0 {
		v = append(v, fmt.Sprintf(
			"%d events still scheduled after quiescence (leaked timer or unfinished recovery)", n))
	}
	return v
}

// checkResources verifies every NIC-level resource returned to its idle
// state: all send records retired, all retransmit timers disarmed, all
// lanai packet buffers back in their pools, every packet descriptor back on
// its NIC's free list (an acknowledgment's holds no buffer, so only this
// sees it leak), and every host-level send token returned.
func checkResources(c *cluster.Cluster, ports []*gm.Port) []string {
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
		if free, made := n.NIC.Descriptors(); free != made {
			v = append(v, fmt.Sprintf("node %d: %d/%d packet descriptors leaked", i, made-free, made))
		}
		if q := n.HW.SendBufs.Queued() + n.HW.RecvBufs.Queued(); q != 0 {
			v = append(v, fmt.Sprintf("node %d: %d buffer waiters still queued", i, q))
		}
		if n.HW.Paused() {
			v = append(v, fmt.Sprintf("node %d: NIC still paused after run", i))
		}
		if got, want := ports[i].FreeSendTokens(), c.Cfg.GM.SendTokens; got != want {
			v = append(v, fmt.Sprintf("node %d: %d/%d send tokens not returned", i, want-got, want))
		}
		if r := ports[i].PendingRecvs(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d extra deliveries queued (duplicate accepted?)", i, r))
		}
	}
	return v
}

// checkConservation verifies the fabric conserved packets: every injected
// or duplicated packet was either delivered or dropped.
func checkConservation(d metrics.Snapshot) []string {
	injected := d.CounterSum("net", "injected")
	duplicated := d.CounterSum("net", "duplicated")
	delivered := d.CounterSum("net", "delivered")
	dropped := d.CounterSum("net", "dropped")
	if injected+duplicated != delivered+dropped {
		return []string{fmt.Sprintf(
			"fabric accounting broken: injected %d + duplicated %d != delivered %d + dropped %d",
			injected, duplicated, delivered, dropped)}
	}
	return nil
}

// checkCensus verifies the NICs accepted exactly the multicast packets the
// workload's deliveries require — no more (duplicates accepted), no less
// (loss papered over).
func checkCensus(d metrics.Snapshot, want uint64) []string {
	if got := d.CounterSum("core", "mcast_received"); got != want {
		return []string{fmt.Sprintf(
			"NICs accepted %d multicast packets, the workload's deliveries require exactly %d", got, want)}
	}
	return nil
}
