package coll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Barrier wire encoding (KindBarrier): Seq is the instance; Offset is the
// dissemination round (>= 0), or one of the tree-sweep markers below.
const (
	auxTreeUp   int32 = -1 // arrival, child -> parent
	auxTreeDown int32 = -2 // release, parent -> child
)

// Barrier blocks the calling process until every member of the group has
// entered the barrier. One host request enters; the NICs run every round;
// a zero-byte group event signals completion. The port must be dedicated
// to collective use.
func (e *Engine) Barrier(proc *sim.Proc, port *gm.Port, id gm.GroupID) {
	e.PostBarrier(proc, port, id)
	for {
		ev := port.Recv(proc)
		if ev.Group == id && len(ev.Data) == 0 {
			port.Release(ev)
			return
		}
		panic("coll: unexpected traffic on barrier port")
	}
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
		swapBitsets(&g.upCur, &g.upNext)
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
	g.sendRel(skBarrier, gm.KindBarrier, g.peerOut(r), g.barSeq, int32(r), r, 0, nil)
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
	if !g.barActive || g.upCur.count() < len(g.barChildren) {
		return
	}
	self := g.eng.nic.ID()
	if g.barParent == self {
		g.treeRelease()
		return
	}
	g.eng.m.barrierSent.Inc()
	g.sendRel(skBarrier, gm.KindBarrier, g.barParent, g.barSeq, auxTreeUp, int(auxTreeUp), 0, nil)
}

// treeRelease sweeps the release down to every child and completes.
func (g *Group) treeRelease() {
	for _, c := range g.barChildren {
		g.eng.m.barrierSent.Inc()
		g.sendRel(skBarrier, gm.KindBarrier, c, g.barSeq, auxTreeDown, int(auxTreeDown), 0, nil)
	}
	g.completeBarrier()
}

// completeBarrier posts the zero-byte completion event to the host.
// Pending stop-and-wait records deliberately survive completion: a peer
// that has not acknowledged our message still needs it — dropping it here
// would abandon a lost packet a slower member depends on.
func (g *Group) completeBarrier() {
	g.barActive = false
	g.eng.m.barriersDone.Inc()
	port := g.eng.nic.Port(g.port)
	port.PostGroupEvent(&gm.RecvEvent{Group: g.id})
}

// rxBarrier handles an arriving barrier message of either algorithm.
func (e *Engine) rxBarrier(src fabric.NodeID, fr *gm.Frame) {
	nic := e.nic
	nic.HW.CPUDo(nic.Cfg.AckProcCost, func() {
		g, ok := e.groups[fr.Group]
		if !ok || g.members == nil {
			// Not installed (yet): no ack, so the peer's stop-and-wait
			// redelivers after this node's install lands.
			e.m.notMemberDrops.Inc()
			return
		}
		// Always acknowledge — duplicates included — so the peer's
		// stop-and-wait stops waiting.
		e.ack(gm.KindBarrierAck, src, fr.Group, fr.Seq, fr.Offset)
		aux := int32(fr.Offset)
		switch {
		case aux == auxTreeDown:
			g.rxTreeDown(fr)
		case aux == auxTreeUp:
			g.rxTreeUp(src, fr)
		default:
			g.rxDissemination(fr, int(aux))
		}
	})
}

// rxDissemination files one dissemination round arrival. A peer can be at
// most one instance ahead (see Group.recvdNext), so arrivals are for the
// current instance, the next one, or stale duplicates.
func (g *Group) rxDissemination(fr *gm.Frame, round int) {
	if round < 0 || round >= g.rounds {
		g.eng.m.duplicates.Inc()
		return
	}
	switch {
	case fr.Seq == g.barSeq+1:
		g.recvdNext |= 1 << uint(round)
	case fr.Seq == g.barSeq && g.barActive:
		g.recvdCur |= 1 << uint(round)
		g.advanceBarrier()
	default:
		g.eng.m.duplicates.Inc() // stale round of a completed instance
	}
}

// rxTreeUp files a child's arrival in the tree barrier.
func (g *Group) rxTreeUp(src fabric.NodeID, fr *gm.Frame) {
	idx := childIndex(g.barChildren, src)
	if idx < 0 {
		g.eng.m.duplicates.Inc()
		return
	}
	switch {
	case fr.Seq == g.barSeq+1:
		g.upNext.setBit(idx)
	case fr.Seq == g.barSeq && g.barActive:
		if !g.upCur.setBit(idx) {
			g.tryTreeUp()
		}
	default:
		g.eng.m.duplicates.Inc()
	}
}

// rxTreeDown handles the parent's release: forward it to this subtree's
// children and complete.
func (g *Group) rxTreeDown(fr *gm.Frame) {
	if fr.Seq != g.barSeq || !g.barActive {
		g.eng.m.duplicates.Inc() // retransmitted release of a completed instance
		return
	}
	g.treeRelease()
}
