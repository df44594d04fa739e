// Package coll is the NIC-resident collective engine: the generalization
// of the multicast firmware (internal/core) to arbitrary collectives that
// the paper's future work — and the authors' follow-up barrier paper
// ("Efficient and Scalable Barrier over Quadrics and Myrinet with a New
// NIC-Based Collective Message Passing Protocol") — describes. One host
// request enters a collective; the NICs run every round among themselves
// and post a completion event when the operation finishes. The host is not
// involved in any round, so slow or skewed processes on other nodes do
// not stall progress (skew tolerance).
//
// The engine owns a per-NIC collective group table keyed alongside the
// multicast group identifier space, with a pluggable algorithm per
// collective:
//
//   - Barrier: dissemination (ceil(log2 n) rounds of tiny messages) or a
//     gather/release sweep up and down a binomial tree;
//   - Reduce/Allreduce: combine-and-forward up the preposted multicast
//     tree, then (allreduce) one NIC-based multicast back down it;
//   - Allgather: concatenate-and-forward up the tree with the result
//     multicast down, or a ring for large vectors (n-1 hops, each NIC
//     forwarding its predecessor's chunks without host involvement).
//
// Every round is reliable through the go-back-N window unicast and the
// multicast use (gm.Window): a group entry sends to each peer on a stream
// of its own, so a collective frame reaches collective logic exactly once
// and in order, and a loss is recovered with gm's timer, backoff and nacks.
package coll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Sentinel errors for misuse of the collective engine, raised as panics like
// core's: recover the value and test it with errors.Is.
var (
	// ErrBadReduce reports a malformed reduction: unknown operator,
	// oversized vector, or operator/length mismatch across contributions.
	ErrBadReduce = errors.New("coll: malformed reduction")
	// ErrNoCollective reports asking for the collective engine of a NIC
	// whose extension has none wired (core.Ext.SetCollective).
	ErrNoCollective = errors.New("coll: NIC has no collective engine")
)

// BarrierAlgo selects a group's barrier algorithm.
type BarrierAlgo uint8

const (
	// BarrierDissemination runs ceil(log2 n) rounds; in round r each NIC
	// signals the member 2^r positions ahead and waits for the member 2^r
	// behind. Latency is log n fabric hops with no single hot spot.
	BarrierDissemination BarrierAlgo = iota
	// BarrierTree gathers arrivals up a binomial tree rooted at the
	// lowest-ID member and releases down it: 2 log n hops but half the
	// messages of dissemination.
	BarrierTree
)

// GatherAlgo selects a group's allgather algorithm.
type GatherAlgo uint8

const (
	// GatherTree concatenates index-tagged contributions up the group's
	// preposted tree; the root multicasts the assembled result back down.
	GatherTree GatherAlgo = iota
	// GatherRing passes each member's vector around a ring of the sorted
	// member list: n-1 hops, bandwidth-optimal for large vectors.
	GatherRing
)

// Config holds the collective firmware costs, charged on the LANai CPU.
type Config struct {
	// GroupInstallCost is the cost of inserting one collective group's
	// entry into the NIC table.
	GroupInstallCost sim.Time
	// ReduceElemCost is the LANai's per-element combining cost.
	ReduceElemCost sim.Time
	// GatherNsPerByte is the LANai's per-byte cost of concatenating
	// allgather contributions (an SDRAM copy on the NIC).
	GatherNsPerByte float64
}

// DefaultConfig returns costs calibrated alongside core.DefaultConfig.
func DefaultConfig() Config {
	return FromCore(core.DefaultConfig())
}

// FromCore derives the collective costs from the multicast extension's
// configuration, so one calibration governs both firmware subsystems.
func FromCore(cc core.Config) Config {
	return Config{
		GroupInstallCost: cc.GroupInstallCost,
		ReduceElemCost:   cc.ReduceElemCost,
		GatherNsPerByte:  1.5,
	}
}

// Engine is one NIC's collective engine. It registers itself with the
// multicast extension (core.Ext.SetCollective), which routes collective
// wire kinds here and exposes its group table for tree neighborhoods.
type Engine struct {
	ext    *core.Ext
	nic    *gm.NIC
	cfg    Config
	groups map[gm.GroupID]*Group
	m      *instruments
	q      *cpuQueues // made by the first collective packet (see queues)
}

// cpuQueues holds the per-packet LANai work of a collective engine:
// acknowledgments, barrier messages and reduction contributions.
type cpuQueues struct {
	acks     cpuFIFO[ackTask]
	barriers cpuFIFO[barrierTask]
	combines cpuFIFO[combineTask]
}

// queues returns the engine's LANai work queues, making them on first use:
// a NIC that never takes part in a collective does not carry them.
func (e *Engine) queues() *cpuQueues {
	if e.q == nil {
		e.q = new(cpuQueues)
	}
	return e.q
}

// Install creates the collective engine for one NIC and wires it into the
// multicast extension. It is a pure constructor: no simulation events are
// scheduled, so installing it never perturbs existing timelines.
func Install(ext *core.Ext, cfg Config) *Engine {
	e := &Engine{
		ext:    ext,
		nic:    ext.NIC(),
		cfg:    cfg,
		groups: make(map[gm.GroupID]*Group),
	}
	e.m = metrics.Attach[instruments](e.nic.HW.Registry(), Component, int(e.nic.ID()))
	ext.SetCollective(e)
	return e
}

// FromExt returns the collective engine wired into an extension.
func FromExt(ext *core.Ext) *Engine {
	e, ok := ext.CollectiveEngine().(*Engine)
	if !ok {
		panic(fmt.Errorf("%w: NIC %v", ErrNoCollective, ext.NIC().ID()))
	}
	return e
}

// FromNIC returns the collective engine installed on a NIC.
func FromNIC(nic *gm.NIC) *Engine { return FromExt(core.FromNIC(nic)) }

// NIC returns the firmware NIC the engine runs on.
func (e *Engine) NIC() *gm.NIC { return e.nic }

// Groups reports how many collective group entries are installed
// (auto-mirrored tree entries included).
func (e *Engine) Groups() int { return len(e.groups) }

// Option adjusts one collective group entry at install time.
type Option func(*Group)

// WithBarrierAlgo selects the group's barrier algorithm.
func WithBarrierAlgo(a BarrierAlgo) Option { return func(g *Group) { g.barrierAlgo = a } }

// WithGatherAlgo selects the group's allgather algorithm.
func WithGatherAlgo(a GatherAlgo) Option { return func(g *Group) { g.gatherAlgo = a } }

// HandleRx consumes one collective wire frame from src (called by core's
// extension hook in firmware context).
func (e *Engine) HandleRx(src fabric.NodeID, fr *gm.Frame) bool {
	switch fr.Kind {
	case gm.KindBarrier:
		e.rxBarrier(src, fr)
	case gm.KindReduce:
		e.rxReduce(src, fr)
	case gm.KindGather:
		e.rxGather(src, fr)
	case gm.KindRing:
		e.rxRing(src, fr)
	default:
		return false
	}
	return true
}

// HandleCtl consumes one collective (n)ack from src — a control packet
// whose Ack is the cumulative sequence number of the peer's stream.
func (e *Engine) HandleCtl(src fabric.NodeID, c fabric.Ctl) bool {
	switch gm.Kind(c.Kind) {
	case gm.KindBarrierAck, gm.KindReduceAck, gm.KindGatherAck, gm.KindRingAck:
		e.rxAck(src, c)
		return true
	}
	return false
}

// Outstanding reports unacknowledged collective send records across all
// groups — zero once every peer has acknowledged every round.
func (e *Engine) Outstanding() int {
	n := 0
	for _, g := range e.groups {
		for _, s := range g.sends {
			n += s.win.Len()
		}
	}
	return n
}

// PendingTimers reports how many per-peer retransmit timers are armed —
// nonzero after quiescence means a leaked timer.
func (e *Engine) PendingTimers() int {
	armed := 0
	for _, g := range e.groups {
		for _, s := range g.sends {
			if s.win.Armed() {
				armed++
			}
		}
	}
	return armed
}

// DebugLeaks renders any collective state that should have drained once
// all collectives completed and all acks arrived: unacked records, armed
// timers, open instances, partial reassemblies, queued ring hops. Empty
// means clean — the chaos invariant checker asserts exactly that.
func (e *Engine) DebugLeaks() string {
	s := ""
	for id, g := range e.groups {
		for _, w := range g.sends {
			if n := w.win.Len(); n > 0 {
				s += fmt.Sprintf("group %d: %d unacked records to %v; ", id, n, w.node)
			}
			if w.win.Armed() {
				s += fmt.Sprintf("group %d: retransmit timer to %v armed; ", id, w.node)
			}
		}
		if g.barActive {
			s += fmt.Sprintf("group %d: barrier instance %d open; ", id, g.barSeq)
		}
		if len(g.red) > 0 {
			s += fmt.Sprintf("group %d: %d open reduce instances; ", id, len(g.red))
		}
		if len(g.ag) > 0 || len(g.asm) > 0 || len(g.agOut) > 0 {
			s += fmt.Sprintf("group %d: allgather state %d/%d/%d; ", id, len(g.ag), len(g.asm), len(g.agOut))
		}
		if len(g.ring) > 0 {
			s += fmt.Sprintf("group %d: %d open ring instances; ", id, len(g.ring))
		}
	}
	return s
}

// Install preposts one collective group entry: the member set plus the
// per-collective algorithm selection. members must be in ascending ID
// order and identical at every node; the engine keeps the slice instead of
// copying it, so every member of a group can (and cluster.InstallCollGroup
// does) pass the same one, which must not be modified afterwards. id
// shares the multicast group identifier space, and the tree-based
// collectives (reduce, allreduce, tree allgather) additionally require a
// multicast group with the same id installed via core.Ext.InstallGroup.
// port receives the group's completion events. fn, if non-nil, runs (in
// firmware context) when the entry is live.
//
// Each member finds itself by binary search and checks its own two
// neighbours in the list; once every member has installed, every adjacent
// pair has been checked, so an unsorted list cannot survive a group
// install — it panics here, or as ErrNotMember or ErrGroupInstalled.
func (e *Engine) Install(id gm.GroupID, members []fabric.NodeID, port gm.PortID, fn func(), opts ...Option) {
	self := e.nic.ID()
	n := len(members)
	myIdx, found := slices.BinarySearch(members, self)
	if !found {
		panic(fmt.Errorf("%w: node %v installing collective group %d", core.ErrNotMember, self, id))
	}
	if (myIdx > 0 && members[myIdx-1] >= self) || (myIdx+1 < n && members[myIdx+1] <= self) {
		panic(fmt.Sprintf("coll: members of collective group %d not in ascending ID order around %v", id, self))
	}
	rounds := 0
	for k := 1; k < n; k <<= 1 {
		rounds++
	}
	e.nic.HW.HostPost(func() {
		e.nic.HW.CPUDo(e.cfg.GroupInstallCost, func() {
			g, exists := e.groups[id]
			if exists && !g.auto {
				panic(fmt.Errorf("%w: collective group %d at %v", core.ErrGroupInstalled, id, self))
			}
			if !exists {
				g = e.newGroup(id)
			}
			g.auto = false
			g.members = members
			g.myIdx = myIdx
			g.rounds = rounds
			g.port = port
			for _, opt := range opts {
				opt(g)
			}
			if g.barrierAlgo == BarrierTree {
				g.barParent, g.barChildren = binomialNeighbors(members, myIdx)
			}
			if fn != nil {
				fn()
			}
		})
	})
}

// binomialNeighbors reports position idx's parent and children (in send
// order, farthest subtree first) in the binomial tree over the sorted
// member list rooted at members[0] — what tree.Binomial(members[0],
// members) links, computed from the index alone: the parent clears idx's
// lowest set bit, the children set each bit below it. The root is its own
// parent.
func binomialNeighbors(members []fabric.NodeID, idx int) (parent fabric.NodeID, children []fabric.NodeID) {
	n := len(members)
	low := idx & -idx // 0 at the root, whose children set any bit
	for stride := 1; idx+stride < n && (idx == 0 || stride < low); stride <<= 1 {
		children = append(children, members[idx+stride])
	}
	slices.Reverse(children)
	return members[idx&(idx-1)], children
}

// groupFor returns the group entry, auto-creating a memberless mirror
// entry (firmware context). The tree collectives need only the multicast
// group table's neighborhood, so a NIC that never saw a coll Install can
// still combine-and-forward — the entry exists to hold instance state.
func (e *Engine) groupFor(id gm.GroupID) *Group {
	g, ok := e.groups[id]
	if !ok {
		g = e.newGroup(id)
		g.auto = true
	}
	return g
}

func (e *Engine) newGroup(id gm.GroupID) *Group {
	g := &Group{eng: e, id: id, myIdx: -1}
	e.groups[id] = g
	return g
}

// treeView reads the group's tree neighborhood from the multicast group
// table (fresh on every use, so membership epoch rolls are honored). The
// port is the multicast group's host port — tree collectives deliver
// their completion events there, so they work on NICs that only ever
// relay (no coll Install).
func (e *Engine) treeView(id gm.GroupID) (root, parent fabric.NodeID, children []fabric.NodeID, port gm.PortID, ok bool) {
	return e.ext.GroupView(id)
}

// EncodeVec serializes an int64 vector little-endian (8 bytes/element).
func EncodeVec(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// DecodeVec deserializes an EncodeVec payload.
func DecodeVec(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
