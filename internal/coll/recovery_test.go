package coll_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// once wraps a match so it selects only the first packet it matches.
func once(m chaos.Match) chaos.Match {
	done := false
	return func(p *fabric.Packet, l *fabric.Link) bool {
		if done || !m(p, l) {
			return false
		}
		done = true
		return true
	}
}

// TestCollNacksSpeedUpRecovery drops the first chunk of one multi-chunk
// allgather batch under the ack economy and times how long the chunk is
// missing from the wire. The chunks behind it reach the parent past a hole:
// with nacks on the parent asks for a resend at once, well inside a
// retransmission timeout; with nacks off the child's window waits out one.
func TestCollNacksSpeedUpRecovery(t *testing.T) {
	rto := gm.DefaultConfig().RetransmitTimeout
	for _, nacks := range []bool{true, false} {
		c, ports := rig(t, 8, func(cfg *cluster.Config) {
			cfg.GM.AckEvery = 4
			cfg.GM.EnableNacks = nacks
		})
		// The first chunk of a multi-chunk batch is dropped; its next
		// appearance on the wire, from the same child, is the resend.
		dropped, resent := sim.Time(-1), sim.Time(-1)
		var child fabric.NodeID
		chaos.NewInjector(c.Net, 1).DropWindow("first-chunk", 0, 0, func(p *fabric.Packet, l *fabric.Link) bool {
			fr, ok := p.Payload.(*gm.Frame)
			if !ok || fr.Kind != gm.KindGather || fr.Offset != 0 || len(fr.Payload) == fr.MsgLen {
				return false
			}
			switch {
			case dropped < 0:
				dropped, child = c.Net.LinkNow(l), p.Src
				return true
			case resent < 0 && p.Src == child:
				resent = c.Net.LinkNow(l)
			}
			return false
		})
		runAllgather(t, c, ports, 400)
		if dropped < 0 || resent < 0 {
			t.Fatalf("nacks %v: chunk dropped at %v, resent at %v", nacks, dropped, resent)
		}
		recovery := resent - dropped
		t.Logf("nacks %v: chunk missing for %v", nacks, recovery)
		if nacks && recovery >= rto/2 {
			t.Errorf("with nacks, the chunk was missing for %v, want well under the %v timeout", recovery, rto)
		}
		if !nacks && (recovery < rto*9/10 || recovery > rto*11/10) {
			t.Errorf("without nacks, the chunk was missing for %v, want about the %v timeout", recovery, rto)
		}
	}
}

// TestCollTimeoutCounted drops one barrier frame with nacks off: the
// sender's window recovers it by a timeout, and that go-back round counts in
// coll's timeouts, as gm's and core's windows count theirs.
func TestCollTimeoutCounted(t *testing.T) {
	const nodes = 4
	c, ports := rig(t, nodes, func(cfg *cluster.Config) { cfg.GM.EnableNacks = false })
	chaos.NewInjector(c.Net, 1).DropWindow("first-barrier", 0, 0, once(func(p *fabric.Packet, _ *fabric.Link) bool {
		fr, ok := p.Payload.(*gm.Frame)
		return ok && fr.Kind == gm.KindBarrier
	}))
	for i := range c.Nodes {
		c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
			c.Nodes[i].Coll.Barrier(p, ports[i], collGID)
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("%d barriers never finished", live)
	}
	var timeouts, retransmits uint64
	snap := c.Nodes[0].HW.Registry().Snapshot()
	for _, n := range c.Nodes {
		timeouts += counter(t, snap, coll.Component, int(n.ID), "timeouts")
		retransmits += counter(t, snap, coll.Component, int(n.ID), "retransmits")
	}
	if retransmits == 0 {
		t.Fatal("the dropped frame was never retransmitted; the test exercised nothing")
	}
	if timeouts < 1 {
		t.Errorf("%d retransmissions after a timeout, but coll counted %d timeouts", retransmits, timeouts)
	}
}

// TestRemoveWithUnackedRecord removes a group while a peer still owes an
// ack: the entry's windows must go with it, leaving no timer to fire and
// nothing to retransmit however long the engine runs on.
func TestRemoveWithUnackedRecord(t *testing.T) {
	const nodes = 4
	c, ports := rig(t, nodes, nil)
	chaos.NewInjector(c.Net, 1).DropWindow("first-ack", 0, 0, once(chaos.MatchCollAcks))
	for i := range c.Nodes {
		c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
			c.Nodes[i].Coll.Barrier(p, ports[i], collGID)
		})
	}
	c.RunUntil(c.Now() + 100*sim.Microsecond)
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("%d barriers still open", live)
	}
	retransmits := func() uint64 {
		var n uint64
		snap := c.Nodes[0].HW.Registry().Snapshot()
		for _, nd := range c.Nodes {
			n += counter(t, snap, coll.Component, int(nd.ID), "retransmits")
		}
		return n
	}
	outstanding := 0
	for _, n := range c.Nodes {
		outstanding += n.Coll.Outstanding()
	}
	if outstanding == 0 {
		t.Fatal("the dropped ack left no record outstanding")
	}
	before := retransmits()
	for _, n := range c.Nodes {
		c.WithNode(n.ID, func() { n.Coll.Remove(collGID, nil) })
	}
	c.Run()
	for _, n := range c.Nodes {
		if g, p := n.Coll.Groups(), n.Coll.PendingTimers(); g != 0 || p != 0 {
			t.Errorf("node %v: %d groups and %d armed timers after Remove", n.ID, g, p)
		}
	}
	if after := retransmits(); after != before {
		t.Errorf("removed groups retransmitted: %d before, %d after", before, after)
	}
}
