package sim_test

// Edge cases of the arena/free-list event kernel: handle invalidation
// across slot reuse, same-timestamp ordering, cancellation from inside
// firing callbacks, and the zero-allocation steady state the kernel
// promises.

import (
	"testing"

	"repro/internal/sim"
)

func TestCancelFromInsideFiringCallback(t *testing.T) {
	// An event firing at t=5 cancels another event scheduled for the same
	// instant; the cancelled event must not fire even though it was
	// already due when the cancellation ran.
	e := sim.NewEngine()
	fired := false
	victim := e.NewTimer(func() { fired = true })
	e.At(5, func() { victim.Stop() })
	victim.Reset(5)
	e.Run()
	if fired {
		t.Fatal("event cancelled by a same-timestamp callback still fired")
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
}

func TestFIFOAcrossFreeListReuse(t *testing.T) {
	// Fire a batch so their arena slots land on the free list (which
	// recycles LIFO), then schedule a second batch at one shared
	// timestamp. Insertion order must win even though the slots are being
	// reused in reverse.
	e := sim.NewEngine()
	for i := 0; i < 10; i++ {
		e.At(sim.Time(i), func() {})
	}
	e.Run()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	if len(order) != 10 {
		t.Fatalf("fired %d of 10 events", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of insertion order: %v", order)
		}
	}
}

func TestTimerResetInsideOwnCallback(t *testing.T) {
	// A timer re-arming itself from its own callback draws a fresh event
	// incarnation (the fired slot is recycled before the callback runs)
	// and must keep firing.
	e := sim.NewEngine()
	count := 0
	var tm *sim.Timer
	tm = e.NewTimer(func() {
		count++
		if count < 3 {
			tm.ResetAfter(10)
		}
	})
	tm.ResetAfter(10)
	e.Run()
	if count != 3 {
		t.Fatalf("self-rearming timer fired %d times, want 3", count)
	}
	if tm.Pending() {
		t.Fatal("settled timer still pending")
	}
}

func TestTimerStopAfterFireIgnoresReusedSlot(t *testing.T) {
	// After a timer fires, its arena slot can be handed to an unrelated
	// event. The stale timer handle must recognize — via its generation —
	// that it no longer owns the slot: Stop reports false and must not
	// cancel the stranger.
	e := sim.NewEngine()
	tm := e.NewTimer(func() {})
	tm.Reset(5)
	e.Run()
	strangerFired := false
	e.At(10, func() { strangerFired = true })
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired timer reported true")
	}
	e.Run()
	if !strangerFired {
		t.Fatal("stale timer Stop cancelled an unrelated event in its reused slot")
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	e := sim.NewEngine()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(5)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerResetMovesDeadline(t *testing.T) {
	e := sim.NewEngine()
	var firedAt sim.Time
	tm := e.NewTimer(func() { firedAt = e.Now() })
	tm.Reset(5)
	tm.Reset(20) // cancels the pending event and schedules it afresh
	e.Run()
	if firedAt != 20 {
		t.Fatalf("timer fired at %v, want 20", firedAt)
	}
}

// Steady state moves events between every part of the queue: each
// iteration fires one event and schedules one either in the current bucket
// (+0, straight into the near heap) or two buckets out (+64 ns, onto the
// ring), which later joins a run; a timer bounces between the far heap
// (1 ms out) and the ring (+32 ns), one reschedule each way.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(sim.Time(i+1), fn)
	}
	tm := e.NewTimer(fn)
	tm.ResetAfter(sim.Millisecond)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		e.Step()
		if i%4 == 0 {
			e.After(0, fn)
		} else {
			e.After(64, fn)
		}
		if i%2 == 0 {
			tm.ResetAfter(32)
		} else {
			tm.ResetAfter(sim.Millisecond)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f/op, want 0", avg)
	}
}

// The timer's arm/rearm/stop churn crosses the horizon both ways — ring to
// far heap, far heap back into the ring and the current bucket — before the
// last arming fires.
func TestTimerChurnDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	tm := e.NewTimer(func() {})
	tm.Reset(1)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		tm.ResetAfter(5)
		tm.ResetAfter(sim.Millisecond)
		tm.ResetAfter(9)
		tm.Stop()
		tm.ResetAfter(2 * sim.Millisecond)
		tm.ResetAfter(0)
		tm.ResetAfter(3)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("timer arm/rearm/stop churn allocates %.1f/op, want 0", avg)
	}
}

// An event cancelled within the ring's horizon stays on its bucket's list
// until the bucket is reached. Here no pending event is ever in the ring:
// the clock moves on by far-heap events and by RunUntil alone, and the
// cancelled slots must still come back rather than grow the arena.
func TestCancelThenFarAdvanceDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	fn := func() {}
	tm := e.NewTimer(fn)
	turns := func() {
		for range 1000 {
			tm.ResetAfter(100)
			tm.Stop()
			e.After(10*sim.Microsecond, fn)
			e.Run()
			tm.ResetAfter(100)
			tm.Stop()
			e.RunUntil(e.Now() + 10*sim.Microsecond)
		}
	}
	turns()
	if avg := testing.AllocsPerRun(10, turns); avg != 0 {
		t.Fatalf("arm, cancel and advance past the ring allocates %.1f per 1000 turns, want 0", avg)
	}
}
