// Package cluster assembles complete simulated Myrinet/GM nodes — host,
// LANai NIC hardware, GM firmware, and the NIC-based multicast extension —
// onto a fabric, and centralizes the calibrated timing configuration that
// stands in for the paper's testbed (16 quad-SMP 700 MHz Pentium-III nodes,
// 66 MHz/64-bit PCI, LANai 9.1, Myrinet-2000).
package cluster

import (
	"slices"
	"sync/atomic"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/lanai"
	"repro/internal/metrics"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Config aggregates every tunable of the simulated testbed.
type Config struct {
	Nodes int
	NIC   lanai.Params
	GM    gm.Config
	Mcast core.Config

	// Fabric selects the interconnect backend and holds its link
	// parameters (myrinet.Default(), clos.Default(), or a preset with edited
	// fields). DefaultConfig sets the Myrinet preset, as does a zero value.
	Fabric fabric.Config

	// HostMemcpyNsPerByte is the host CPU's copy bandwidth, paid when the
	// MPI layer copies an eager message from the bounce buffer to its
	// final location (the cause of the paper's dip at 16,287 bytes).
	HostMemcpyNsPerByte float64

	// LossRate is the per-link packet-loss probability; Seed feeds the
	// simulation's single RNG.
	LossRate float64
	Seed     int64

	// Trace, when non-nil, is attached to every NIC so the run can be
	// rendered as a packet timeline.
	Trace *trace.Recorder

	// Metrics, when non-nil, is the registry every layer (fabric, NIC
	// hardware, GM firmware, multicast extension, collective engine) files
	// its instrument blocks in, one per (layer, node); clusters that share
	// a registry share the blocks, so it accumulates over all of them.
	// With nil the cluster files them in a registry of its own, which
	// Node.HW.Registry() reports and Cluster.Registry() does not.
	Metrics *metrics.Registry

	// Shards partitions the fabric over this many engines for conservative
	// parallel execution (0 or 1 means the classic serial engine; the count
	// is clamped to the node count). Sharded output is byte-identical to
	// serial for the same seed. Sharding is incompatible with stochastic
	// loss and tracing, whose shared state would make cross-shard order
	// observable — build panics with fabric.ErrShardsWithLossRate /
	// fabric.ErrShardsWithTrace.
	Shards int

	// noExt skips installing the multicast extension (WithoutExtension).
	noExt bool
}

// DefaultConfig returns the calibrated testbed for n nodes.
func DefaultConfig(n int) *Config {
	g := gm.DefaultConfig()
	// LANai 9.1 at 133 MHz is an order of magnitude slower than the hosts;
	// its per-request and per-packet firmware costs dominate the multicast
	// trade-offs. Calibrated so unicast one-way sits near 8 µs (GM on
	// LANai 9.1) and the figure improvement factors land in range.
	g.SendEventCost = sim.Micros(3.4)
	g.TxSetupCost = sim.Micros(0.8)
	g.RecvProcCost = sim.Micros(2.2)
	g.AckProcCost = sim.Micros(0.9)
	return &Config{
		Nodes:               n,
		Fabric:              myrinet.Default(),
		NIC:                 lanai.DefaultParams(),
		GM:                  g,
		Mcast:               core.DefaultConfig(),
		HostMemcpyNsPerByte: 0.9, // ~1.1 GB/s PIII-era copy bandwidth
		Seed:                1,
	}
}

// Node is one complete cluster member.
type Node struct {
	ID   fabric.NodeID
	HW   *lanai.NIC
	NIC  *gm.NIC
	Ext  *core.Ext
	Coll *coll.Engine
}

// Cluster is an assembled simulated testbed.
type Cluster struct {
	Cfg *Config
	// Eng is the serial engine — nil when the cluster is sharded, so code
	// that has not been taught about shards fails loudly instead of
	// silently desynchronizing one shard. Use Run/RunUntil/SpawnOn/Now and
	// friends, which dispatch to either mode.
	Eng   *sim.Engine
	Net   *fabric.Network
	RNG   *sim.RNG
	Nodes []*Node

	engines []*sim.Engine
	fab     fabric.Config // resolved backend (Fabric or the Myrinet default)
	plan    fabric.Plan
	sh      *sim.Sharded // nil when serial

	prevWindows   uint64 // metrics fold bookkeeping
	prevCross     uint64
	prevStretched uint64
	prevInline    uint64
	prevEmpty     uint64
	prevCritical  uint64
	prevEvents    []uint64
	prevWait      []int64
}

// New builds a cluster of n nodes: engine, fabric (single crossbar up to
// 16 nodes, a Clos of 16-port crossbars beyond — the testbed's default
// topology), and one full node per host, with the multicast extension
// installed. Options adjust the calibrated default configuration:
//
//	cluster.New(16, cluster.WithMetrics(reg), cluster.WithLossRate(1e-4))
func New(n int, opts ...Option) *Cluster {
	cfg := DefaultConfig(n)
	for _, o := range opts {
		o(cfg)
	}
	cfg.Nodes = n // the positional node count always wins
	return build(cfg)
}

// backend resolves the interconnect: Fabric, or the Myrinet preset when
// Fabric is unset.
func (cfg *Config) backend() fabric.Config {
	if cfg.Fabric.Valid() {
		return cfg.Fabric
	}
	return myrinet.Default()
}

// build assembles the cluster described by cfg, wiring the metrics
// registry (cfg's, or the cluster's own) through every layer before
// firmware is attached.
// Sharded and serial builds follow the identical code path — same fabric,
// same domain registration, same construction order — so event tiebreak
// keys (and therefore timelines) agree bit for bit across shard counts.
func build(cfg *Config) *Cluster {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Nodes {
		shards = cfg.Nodes // the shards-exceed-nodes edge case degenerates
	}
	if shards > 1 {
		if cfg.LossRate > 0 {
			panic(fabric.ErrShardsWithLossRate)
		}
		if cfg.Trace != nil {
			panic(fabric.ErrShardsWithTrace)
		}
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	fab := cfg.backend()
	net := fab.Build(engines[0], cfg.Nodes, fab)
	plan := net.Partition(shards)
	net.ApplyPlan(plan, engines[:plan.Shards])
	rng := sim.NewRNG(cfg.Seed)
	net.SetRNG(rng)
	if err := net.SetLossRate(cfg.LossRate); err != nil {
		panic(err) // errors.Is-testable sentinel (ErrBadLossRate)
	}
	// With none wired the layers still file their blocks, in a registry of
	// the cluster's own that Node.HW.Registry() reports: a reader of one
	// counter (the benchmark's loss-free check) finds it either way.
	reg := metrics.Ensure(cfg.Metrics)
	net.SetMetrics(reg)
	c := &Cluster{Cfg: cfg, Net: net, RNG: rng, engines: engines, fab: fab, plan: plan}
	if plan.Shards == 1 {
		c.Eng = engines[0]
	} else {
		c.sh = sim.NewShardedMatrix(engines, plan.PairLookahead, net.DrainCross)
		c.sh.SetPending(net.CrossPending)
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := fabric.NodeID(i)
		eng := engines[plan.HostShard[i]]
		var node *Node
		// Construction runs under the host's domain so any keys it draws
		// are attributed to the node, not the ambient domain — ambient
		// sequences live per engine and would diverge across shard counts.
		eng.WithDomain(net.HostDomain(id), func() {
			hw := lanai.New(eng, net.Iface(id), cfg.NIC)
			hw.SetMetrics(reg)
			nic := gm.NewNIC(hw, cfg.GM)
			nic.Trace = cfg.Trace
			node = &Node{ID: id, HW: hw, NIC: nic}
			if !cfg.noExt {
				node.Ext = core.Install(nic, core.WithConfig(cfg.Mcast))
				node.Coll = coll.Install(node.Ext, coll.FromCore(cfg.Mcast))
			}
		})
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Shards reports how many engines the cluster runs on.
func (c *Cluster) Shards() int { return c.plan.Shards }

// Fabric reports the resolved backend configuration the cluster was built
// with (the Myrinet preset when none was selected).
func (c *Cluster) Fabric() fabric.Config { return c.fab }

// Sharded exposes the shard coordinator (nil when serial) — benchmarks use
// it for window/barrier statistics.
func (c *Cluster) Sharded() *sim.Sharded { return c.sh }

// EngineOf reports the engine that owns a node's events.
func (c *Cluster) EngineOf(id fabric.NodeID) *sim.Engine {
	return c.engines[c.plan.HostShard[id]]
}

// Engines exposes the per-shard engines.
func (c *Cluster) Engines() []*sim.Engine { return c.engines }

// WithNode runs fn attributed to the node: on the node's engine, under the
// node's event domain. Every ambient (outside-any-event) operation that
// schedules work on a node — installing groups, opening ports, spawning
// host processes — must go through it (or SpawnOn) so tiebreak keys stay
// shard-stable.
func (c *Cluster) WithNode(id fabric.NodeID, fn func()) {
	c.EngineOf(id).WithDomain(c.Net.HostDomain(id), fn)
}

// SpawnOn starts a simulated host process on a node, on the node's engine
// and under its domain. It is the sharded-safe replacement for
// c.Eng.Spawn; spawn only between runs (at a barrier), never from a
// process on another shard.
func (c *Cluster) SpawnOn(id fabric.NodeID, name string, fn func(p *sim.Proc)) *sim.Proc {
	var p *sim.Proc
	eng := c.EngineOf(id)
	eng.WithDomain(c.Net.HostDomain(id), func() {
		p = eng.Spawn(name, fn)
	})
	return p
}

// Run fires events until the whole cluster is quiescent, serial or
// sharded; afterwards every shard's clock sits at the same time a serial
// run would end at.
func (c *Cluster) Run() {
	if c.sh != nil {
		c.sh.Run()
		c.foldShardMetrics()
		return
	}
	c.Eng.Run()
}

// RunUntil fires every event with timestamp <= t and advances all clocks
// to t.
func (c *Cluster) RunUntil(t sim.Time) {
	if c.sh != nil {
		c.sh.RunUntil(t)
		c.foldShardMetrics()
		return
	}
	c.Eng.RunUntil(t)
}

// Now reports the cluster's virtual time (all shard clocks agree between
// runs).
func (c *Cluster) Now() sim.Time {
	if c.sh != nil {
		return c.sh.Now()
	}
	return c.Eng.Now()
}

// Kill unwinds all live processes across every shard.
func (c *Cluster) Kill() {
	if c.sh != nil {
		c.sh.Kill()
		return
	}
	c.Eng.Kill()
}

// LiveProcs totals unfinished processes across shards.
func (c *Cluster) LiveProcs() int {
	if c.sh != nil {
		return c.sh.LiveProcs()
	}
	return c.Eng.LiveProcs()
}

// Pending totals scheduled, not-yet-fired events across shards.
func (c *Cluster) Pending() int {
	if c.sh != nil {
		return c.sh.Pending()
	}
	return c.Eng.Pending()
}

// EventsFired totals fired events across shards.
func (c *Cluster) EventsFired() uint64 {
	if c.sh != nil {
		return c.sh.EventsFired()
	}
	return c.Eng.EventsFired()
}

// foldShardMetrics publishes the coordinator's deterministic accounting —
// per-shard fired events, window / stretched-window / inline-window /
// skipped-drain, cross-shard and critical-path event counts
// (ShardStats.Critical) — into the metrics registry
// after each run. Wall-clock barrier waits are cheap enough to track
// unconditionally now, so they fold in by default; they are wall-clock
// (nondeterministic) values and live in histograms, which the determinism
// checks already exclude.
func (c *Cluster) foldShardMetrics() {
	reg := c.Cfg.Metrics
	if c.sh == nil || reg == nil {
		return
	}
	st := c.sh.Stats()
	reg.Counter("sim", metrics.NodeFabric, "windows").Add(st.Windows - c.prevWindows)
	reg.Counter("sim", metrics.NodeFabric, "cross_events").Add(st.CrossEvents - c.prevCross)
	reg.Counter("sim", metrics.NodeFabric, "windows_stretched").Add(st.Stretched - c.prevStretched)
	reg.Counter("sim", metrics.NodeFabric, "windows_inline").Add(st.Inline - c.prevInline)
	reg.Counter("sim", metrics.NodeFabric, "drains_skipped").Add(st.EmptyDrains - c.prevEmpty)
	reg.Counter("sim", metrics.NodeFabric, "critical_events").Add(st.Critical - c.prevCritical)
	c.prevWindows, c.prevCross = st.Windows, st.CrossEvents
	c.prevStretched, c.prevInline, c.prevEmpty = st.Stretched, st.Inline, st.EmptyDrains
	c.prevCritical = st.Critical
	if c.prevEvents == nil {
		c.prevEvents = make([]uint64, st.Shards)
		c.prevWait = make([]int64, st.Shards)
	}
	for s := 0; s < st.Shards; s++ {
		reg.Counter("sim", s, "events_fired").Add(st.Events[s] - c.prevEvents[s])
		c.prevEvents[s] = st.Events[s]
		if len(st.WaitNs) == st.Shards {
			reg.Histogram("sim", s, "barrier_wait_ns").Observe(st.WaitNs[s] - c.prevWait[s])
			c.prevWait[s] = st.WaitNs[s]
		}
	}
}

// Registry reports the metrics registry the cluster was built with (nil
// when none was wired).
func (c *Cluster) Registry() *metrics.Registry { return c.Cfg.Metrics }

// OpenPorts opens the same port number on every node and returns the
// ports indexed by node.
func (c *Cluster) OpenPorts(id gm.PortID) []*gm.Port {
	ports := make([]*gm.Port, len(c.Nodes))
	for i, n := range c.Nodes {
		i, n := i, n
		c.WithNode(n.ID, func() { ports[i] = n.NIC.OpenPort(id) })
	}
	return ports
}

// InstallGroup preposts a group's tree into the NIC group table of every
// member. Installation is asynchronous firmware work; the returned ready
// function reports completion. The completion count is written from every
// member's shard, so on a sharded cluster poll ready only from outside the
// run (typically: InstallGroup, then Run to quiescence, then check).
func (c *Cluster) InstallGroup(id gm.GroupID, tr *tree.Tree, port, rootPort gm.PortID) (ready func() bool) {
	total := int64(tr.Size())
	done := new(atomic.Int64)
	for _, n := range tr.Nodes() {
		n := n
		c.WithNode(n, func() {
			c.Nodes[n].Ext.InstallGroup(id, tr, port, rootPort, func() { done.Add(1) })
		})
	}
	return func() bool { return done.Load() == total }
}

// InstallCollGroup installs a collective group over every listed member's
// collective engine. The member list is copied and sorted once here; every
// engine shares that one slice. Like InstallGroup, installation is
// asynchronous firmware work; poll the returned ready function only from
// outside a run.
func (c *Cluster) InstallCollGroup(id gm.GroupID, members []fabric.NodeID, port gm.PortID, opts ...coll.Option) (ready func() bool) {
	members = slices.Clone(members)
	slices.Sort(members)
	total := int64(len(members))
	done := new(atomic.Int64)
	for _, n := range members {
		n := n
		c.WithNode(n, func() {
			c.Nodes[n].Coll.Install(id, members, port, func() { done.Add(1) }, opts...)
		})
	}
	return func() bool { return done.Load() == total }
}

// Members returns node IDs [0, n) — the usual full-system group.
func (c *Cluster) Members() []fabric.NodeID {
	out := make([]fabric.NodeID, len(c.Nodes))
	for i := range out {
		out[i] = fabric.NodeID(i)
	}
	return out
}

// HostMemcpyTime reports the host-CPU cost of copying n bytes.
func (cfg *Config) HostMemcpyTime(n int) sim.Time {
	return sim.PerByte(cfg.HostMemcpyNsPerByte, n)
}

// Postal derives analytic postal-model parameters (Lambda, Gap) for a
// message of the given size, the quantities the paper's optimal-tree
// construction divides: "a) the total amount of time for a node to send a
// message until the receiver receives it, and b) the average time for the
// sender to send a message to one additional destination".
//
// Lambda is the time from one NIC emitting a packet until the receiving
// NIC can itself start replicating it onward: serialization, the per-hop
// link latencies, receive processing, and the receive-token → send-token
// transform. Host-to-host latency is deliberately not used — NIC-based
// forwarding never waits for the host, so the forwarding pivot is
// NIC-to-NIC. Gap is the per-additional-destination cost of the NIC-based
// multisend: header rewrite plus wire serialization, per packet.
//
// The ratio Lambda/Gap then reproduces the paper's observations: large for
// small messages (wide, shallow trees), and about 1 for single-packet 2-4
// KB messages, where "the shape of the resulting optimal tree is not
// significantly different from the binomial tree".
func (cfg *Config) Postal(size int) tree.PostalParams {
	fab := cfg.backend()
	g, lp := cfg.GM, fab.Links
	npkts := g.Packets(size)
	first := size
	if first > g.MTU {
		first = g.MTU
	}

	// Worst-case hop count of whatever topology the selected backend
	// builds for this node count (on Myrinet: crossbar 2, two-level Clos 4,
	// fat tree 6).
	hops := sim.Time(fab.Diameter(cfg.Nodes))
	ser := lp.SerializationTime(g.WireSize(first))

	lambda := ser + hops*lp.Latency + g.RecvProcCost + cfg.Mcast.ForwardSetupCost
	gap := sim.Time(npkts) * (cfg.Mcast.HeaderRewriteCost + ser)
	return tree.PostalParams{Lambda: lambda, Gap: gap}
}

// OptimalTree builds the message-size-specific latency-optimal tree for a
// root over members. Single-packet messages use the Bar-Noy–Kipnis postal
// tree from the cluster's (Lambda, Gap). Multi-packet messages account for
// what the postal model cannot express — an intermediate NIC forwards each
// packet as it arrives, so a node's sustained output is its link bandwidth
// divided by its fan-out — and use the balanced k-ary tree whose analytic
// pipelined finish time is smallest. This is the paper's own rationale:
// "using NIC-based forwarding an intermediate NIC can forward the packets
// of a message without waiting for the arrival of the complete message".
func (cfg *Config) OptimalTree(root fabric.NodeID, members []fabric.NodeID, size int) *tree.Tree {
	if cfg.GM.Packets(size) == 1 {
		return tree.Optimal(root, members, cfg.Postal(size))
	}
	n := len(members)
	best, bestT := 1, cfg.pipelinedFinish(n, 1, size)
	for f := 2; f < n; f++ {
		if t := cfg.pipelinedFinish(n, f, size); t < bestT {
			best, bestT = f, t
		}
	}
	return tree.KAry(root, members, best)
}

// pipelinedFinish estimates when the last node holds the complete message
// if it is streamed per-packet down a balanced f-ary tree of n nodes: the
// root emits f replicas of each packet (serialization plus header rewrite
// per replica), and each tree level adds one per-packet forwarding delay.
func (cfg *Config) pipelinedFinish(n, f, size int) sim.Time {
	g, lp := cfg.GM, cfg.backend().Links
	npkts := g.Packets(size)
	chunk := size
	if chunk > g.MTU {
		chunk = g.MTU
	}
	ser := lp.SerializationTime(g.WireSize(chunk))
	perReplica := ser + cfg.Mcast.HeaderRewriteCost
	rootEmit := sim.Time(f) * sim.Time(npkts) * perReplica

	depth := 0
	for covered := 1; covered < n; depth++ {
		covered += pow(f, depth+1)
	}
	hop := g.RecvProcCost + cfg.Mcast.ForwardSetupCost + ser + 2*lp.Latency
	return rootEmit + sim.Time(depth)*hop
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out > 1<<30 {
			return out
		}
	}
	return out
}
