//go:build !race

package coll_test

import (
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
