package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Collective is the NIC-resident collective engine installed alongside the
// multicast extension (internal/coll implements it). The extension routes
// collective wire kinds (barrier, reduce, gather, ring) to it and merges
// its counters into the legacy Stats view; the engine in turn reads the
// extension's group table for tree neighborhoods (GroupView) and reuses
// Mcast for result distribution. The split keeps the import direction
// one-way: coll imports core, never the reverse.
type Collective interface {
	// HandleRx consumes one collective wire frame from src (firmware
	// context); HandleCtl one collective acknowledgment, a control packet.
	HandleRx(src fabric.NodeID, fr *gm.Frame) bool
	HandleCtl(src fabric.NodeID, c fabric.Ctl) bool
	// InstallBarrier preposts a barrier group (member set, no tree).
	InstallBarrier(id gm.GroupID, members []fabric.NodeID, port gm.PortID, fn func())
	// Barrier blocks until every member has entered the barrier.
	Barrier(proc *sim.Proc, port *gm.Port, id gm.GroupID)
	// Reduce combines vectors up the group's tree; the root blocks for
	// and returns the result, other members return nil.
	Reduce(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) []int64
	// Allreduce is Reduce followed by a multicast of the result down the
	// same tree; every member returns the combined vector.
	Allreduce(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) []int64
	// CollStats snapshots the engine's counters for the Stats merge.
	CollStats() CollStats
	// Outstanding reports unacknowledged collective send records.
	Outstanding() int
	// PendingTimers reports armed collective retransmit timers.
	PendingTimers() int
}

// CollStats is the collective-engine counter snapshot merged into Stats.
type CollStats struct {
	BarrierSent    uint64
	BarriersDone   uint64
	ReduceSent     uint64
	ReduceCombines uint64
	GatherSent     uint64
	GathersDone    uint64
	Retransmits    uint64
	Duplicates     uint64
	NotMemberDrops uint64
}

// SetCollective wires a collective engine into the extension. Installed
// once, right after the extension itself (cluster wiring does both).
func (e *Ext) SetCollective(c Collective) { e.coll = c }

// CollectiveEngine returns the wired collective engine (nil if none).
func (e *Ext) CollectiveEngine() Collective { return e.coll }

func (e *Ext) mustColl() Collective {
	if e.coll == nil {
		panic(fmt.Errorf("%w: NIC %v", ErrNoCollective, e.nic.ID()))
	}
	return e.coll
}

// GroupView exposes one group-table entry's tree neighborhood to the
// collective engine (firmware context): the combine-and-forward collectives
// reduce up and multisend down the same preposted tree the multicast uses.
func (e *Ext) GroupView(id gm.GroupID) (root, parent fabric.NodeID, children []fabric.NodeID, port gm.PortID, ok bool) {
	g, ok := e.groups[id]
	if !ok {
		return 0, 0, nil, 0, false
	}
	return g.root, g.parent, g.children, g.port, true
}

// The methods below are compatibility shims forwarding to the collective
// engine, preserving the API surface from when barrier and reduce were
// implemented inside this package.

// InstallBarrier preposts a barrier group (the member set; no tree) into
// the NIC. Members must be identical at every node; id shares the
// multicast group identifier space.
func (e *Ext) InstallBarrier(id gm.GroupID, members []fabric.NodeID, port gm.PortID, fn func()) {
	e.mustColl().InstallBarrier(id, members, port, fn)
}

// Barrier blocks the calling process until every member of the barrier
// group has entered the barrier. One host request enters; the NICs do the
// rest; a zero-byte group event signals completion.
func (e *Ext) Barrier(proc *sim.Proc, port *gm.Port, id gm.GroupID) {
	e.mustColl().Barrier(proc, port, id)
}

// Reduce contributes this node's vector to a reduction over the group's
// tree and, at the root, blocks until the combined result arrives.
// Non-roots return nil as soon as their contribution is posted.
func (e *Ext) Reduce(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) []int64 {
	return e.mustColl().Reduce(proc, port, id, vec, op)
}

// AllreduceNIC reduces to the root over the tree, then multicasts the
// result back down it: every member returns the combined vector. The
// caller must have preposted a receive token (>= 8*len(vec) bytes) on
// non-root members for the downward multicast.
func (e *Ext) AllreduceNIC(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) []int64 {
	return e.mustColl().Allreduce(proc, port, id, vec, op)
}
