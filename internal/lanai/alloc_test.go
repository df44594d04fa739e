//go:build !race

package lanai

import (
	"testing"

	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own, so this is left
// out of -race builds).

// A stall cycle allocates nothing once warm: one holder, two acquirers
// queued behind it, then the releases that drain the pool, each grant
// delivered by an event. Both queues pop by shifting down in place; popping
// by reslicing past the head walked each slice off its array, and the next
// stall's appends reallocated it (4 objects a cycle).
func TestAllocBufPoolStallCycle(t *testing.T) {
	eng := sim.NewEngine()
	p := newBufPool(eng, 0, "sendbufs", 1, new(poolInstruments))
	var hold, a, b Buf
	noop := func() {}
	cycle := func() {
		p.Acquire(&hold, noop)
		p.Acquire(&a, noop)
		p.Acquire(&b, noop)
		hold.Release()
		eng.Run()
		a.Release()
		eng.Run()
		b.Release()
	}
	cycle() // the queues' arrays and the bound grant callback are made once
	if p.MaxQueued != 2 || p.Free() != 1 {
		t.Fatalf("cycle queued %d acquirers and left %d free, want 2 and 1", p.MaxQueued, p.Free())
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a buffer-pool stall cycle allocates %.1f objects, want 0", n)
	}
}
