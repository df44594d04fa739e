//go:build !race

package coll_test

import (
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own).

// A collective acknowledgment's turn on the LANai allocates nothing: the
// ack waits in the engine's queue, and one callback bound on first use runs
// it, where a closure per ack once cost an object. Each ack here is for a
// barrier stream already open and covers nothing new, so the window only
// reads it.
func TestAllocPerCollectiveAck(t *testing.T) {
	c, ports := rig(t, 2, nil)
	defer c.Kill()
	for n := range 2 {
		c.Eng.Spawn("barrier", func(p *sim.Proc) { c.Nodes[n].Coll.Barrier(p, ports[n], collGID) })
	}
	c.Run()
	e := c.Nodes[0].Coll
	ack := fabric.Ctl{Kind: uint8(gm.KindBarrierAck), Group: uint32(collGID), Ack: 1}
	allocs := testing.AllocsPerRun(100, func() {
		if !e.HandleCtl(1, ack) {
			t.Fatal("the collective engine did not take its own ack")
		}
		c.Run()
	})
	if allocs != 0 {
		t.Errorf("a collective ack allocates %.2f objects, want 0", allocs)
	}
}

// barrierLoopAllocs runs rounds dissemination barriers on every node of a
// fresh cluster and reports the heap objects the loop allocated, measured
// again when the runtime started an OS thread meanwhile (its records are
// the runtime's, not the loop's).
func barrierLoopAllocs(t *testing.T, nodes, rounds int) uint64 {
	t.Helper()
	for {
		threads := pprof.Lookup("threadcreate").Count()
		c, ports := rig(t, nodes, nil)
		for n := range nodes {
			c.Eng.Spawn("barrier", func(p *sim.Proc) {
				for range rounds {
					c.Nodes[n].Coll.Barrier(p, ports[n], collGID)
				}
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Eng.Run()
		runtime.ReadMemStats(&after)
		c.Kill()
		if pprof.Lookup("threadcreate").Count() == threads {
			return after.Mallocs - before.Mallocs
		}
	}
}

// A NIC barrier allocates nothing per packet: its messages' frames come
// from the engine's pool and go back when the peer's ack retires them (a
// fresh frame per message was one object a packet). What a barrier does
// allocate is per call, on each node: the host's post of the request to the
// NIC (two closures) and the completion event — the same three objects
// whether the group's 4 members exchange 2 messages each or its 16 members
// exchange 4 (a fresh frame per message made that 5 and 7). Differencing
// loops of two lengths takes set-up out; the bound leaves room for a few of
// the runtime's own objects landing in one loop and not the other.
func TestAllocBarrierLoopPerPacket(t *testing.T) {
	for _, nodes := range []int{4, 16} {
		short, long := barrierLoopAllocs(t, nodes, 50), barrierLoopAllocs(t, nodes, 150)
		per := (float64(long) - float64(short)) / float64(100*nodes)
		t.Logf("%d nodes: %.2f objects per barrier on each node", nodes, per)
		if per > 3.05 {
			t.Errorf("%d nodes: a barrier allocates %.2f objects on each node, want 3 (the host's post and the completion event)", nodes, per)
		}
	}
}
