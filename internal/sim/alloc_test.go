//go:build !race

package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own).

// A warm Wait → WakeOne cycle allocates nothing: WakeOne shifts the queue
// down in place, so the array the next Wait appends to keeps its capacity.
func TestAllocWaiterCycle(t *testing.T) {
	e := sim.NewEngine()
	defer e.Kill()
	w := sim.NewWaiter(e)
	e.Spawn("waiter", func(p *sim.Proc) {
		for {
			w.Wait(p)
		}
	})
	cycle := func() {
		if !w.WakeOne() {
			t.Fatal("no process parked on the waiter")
		}
		e.Run()
	}
	e.Run() // the process parks
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("a warm Wait → WakeOne cycle allocates %.1f objects, want 0", avg)
	}
}
