package coll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Barrier wire encoding (KindBarrier): MsgID is the instance; Offset is
// the dissemination round (>= 0), or one of the tree-sweep markers below.
const (
	auxTreeUp   = -1 // arrival, child -> parent
	auxTreeDown = -2 // release, parent -> child
)

// Barrier blocks the calling process until every member of the group has
// entered the barrier. One host request enters; the NICs run every round;
// a zero-byte group event signals completion. The port must be dedicated
// to collective use.
func (e *Engine) Barrier(proc *sim.Proc, port *gm.Port, id gm.GroupID) {
	e.PostBarrier(proc, port, id)
	awaitEvent(proc, port, id, "barrier", false)
}

// awaitEvent receives the group event that completes op — zero bytes for a
// barrier, a vector (data) for the others — and panics on any other traffic.
func awaitEvent(proc *sim.Proc, port *gm.Port, id gm.GroupID, op string, data bool) *gm.RecvEvent {
	ev := port.Recv(proc)
	if ev.Group != id || (len(ev.Data) > 0) != data {
		panic("coll: unexpected traffic on " + op + " port")
	}
	return ev
}

// PostBarrier enters the barrier without blocking for completion — the
// split entry point for callers multiplexing a port (internal/mpi), who
// observe completion as a zero-byte group event in their own receive loop.
func (e *Engine) PostBarrier(proc *sim.Proc, port *gm.Port, id gm.GroupID) {
	if port.NIC() != e.nic {
		panic(fmt.Errorf("%w: Barrier", core.ErrWrongNIC))
	}
	proc.Compute(e.nic.Cfg.HostSendPost)
	nic := e.nic
	nic.HW.HostPost(func() {
		nic.HW.CPUDo(nic.Cfg.SendEventCost, func() {
			g, ok := e.groups[id]
			if !ok || g.members == nil {
				panic(fmt.Errorf("%w: Barrier on group %d at %v", core.ErrNoSuchGroup, id, nic.ID()))
			}
			if g.barActive {
				panic(fmt.Errorf("%w: concurrent Barrier on group %d at %v", core.ErrGroupBusy, id, nic.ID()))
			}
			g.enterBarrier()
		})
	})
}

// enterBarrier starts a new barrier instance on the firmware side.
func (g *Group) enterBarrier() {
	g.barSeq++
	g.barActive = true
	if len(g.members) == 1 {
		g.completeBarrier()
		return
	}
	if g.barrierAlgo == BarrierTree {
		g.upCur, g.upNext = g.upNext, 0
		g.tryTreeUp()
		return
	}
	g.barRound = 0
	g.recvdCur, g.recvdNext = g.recvdNext, 0
	g.sendRound(0)
	g.advanceBarrier()
}

// peerOut is the dissemination partner signalled in round r.
func (g *Group) peerOut(r int) fabric.NodeID {
	return g.members[(g.myIdx+(1<<r))%len(g.members)]
}

// sendRound transmits this node's message for one dissemination round.
func (g *Group) sendRound(r int) {
	g.eng.m.barrierSent.Inc()
	g.eng.m.barrierRounds.Inc()
	g.sendBarrier(g.peerOut(r), r)
}

// advanceBarrier consumes arrived round messages in order, sending each
// next round, and completes the barrier after the last round's arrival.
func (g *Group) advanceBarrier() {
	if !g.barActive {
		return
	}
	for g.barRound < g.rounds && g.recvdCur&(1<<uint(g.barRound)) != 0 {
		g.barRound++
		if g.barRound < g.rounds {
			g.sendRound(g.barRound)
		}
	}
	if g.barRound == g.rounds {
		g.completeBarrier()
	}
}

// tryTreeUp sends this subtree's arrival up once every child has arrived
// (root: releases down instead).
func (g *Group) tryTreeUp() {
	if !g.barActive || g.upCur < len(g.barChildren) {
		return
	}
	self := g.eng.nic.ID()
	if g.barParent == self {
		g.treeRelease()
		return
	}
	g.eng.m.barrierSent.Inc()
	g.sendBarrier(g.barParent, auxTreeUp)
}

// treeRelease sweeps the release down to every child and completes.
func (g *Group) treeRelease() {
	for _, c := range g.barChildren {
		g.eng.m.barrierSent.Inc()
		g.sendBarrier(c, auxTreeDown)
	}
	g.completeBarrier()
}

// sendBarrier sends the current instance's message at offset (a round or a
// tree-sweep marker) to one peer.
func (g *Group) sendBarrier(to fabric.NodeID, offset int) {
	g.send(to, &gm.Frame{Kind: gm.KindBarrier, MsgID: uint64(g.barSeq), Offset: offset})
}

// completeBarrier posts the zero-byte completion event to the host.
// Unacknowledged records deliberately survive completion: a peer that has
// not acknowledged our message still needs it — dropping it here would
// abandon a lost packet a slower member depends on.
func (g *Group) completeBarrier() {
	g.barActive = false
	g.eng.m.barriersDone.Inc()
	port := g.eng.nic.Port(g.port)
	port.PostGroupEvent(&gm.RecvEvent{Group: g.id})
}

// rxBarrier handles an arriving barrier message of either algorithm. A
// peer's messages arrive exactly once and in order, and a peer can be at
// most one instance ahead (see Group.recvdNext), so a message is for the
// current instance or the next.
func (e *Engine) rxBarrier(src fabric.NodeID, fr *gm.Frame) {
	e.queues().barriers.do(e.nic, e.nic.Cfg.AckProcCost, barrierTask{e, src, fr})
}

// barrierTask is one arrived barrier message awaiting its turn on the
// LANai.
type barrierTask struct {
	e   *Engine
	src fabric.NodeID
	fr  *gm.Frame
}

func (t barrierTask) run() {
	e, fr := t.e, t.fr
	g, ok := e.groups[fr.Group]
	if !ok || g.members == nil {
		// Not installed (yet): no ack, so the peer's window
		// redelivers after this node's install lands.
		e.m.notMemberDrops.Inc()
		return
	}
	if !g.accept(t.src, fr) {
		return
	}
	next := uint32(fr.MsgID) == g.barSeq+1
	switch {
	case fr.Offset == auxTreeDown:
		g.treeRelease()
	case fr.Offset == auxTreeUp && next:
		g.upNext++
	case fr.Offset == auxTreeUp:
		g.upCur++
		g.tryTreeUp()
	case next:
		g.recvdNext |= 1 << uint(fr.Offset)
	default:
		g.recvdCur |= 1 << uint(fr.Offset)
		g.advanceBarrier()
	}
}
