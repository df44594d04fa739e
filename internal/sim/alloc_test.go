//go:build !race

package sim_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own).

// A warm Wait → WakeOne cycle allocates nothing: WakeOne shifts the queue
// down in place, so the array the next Wait appends to keeps its capacity.
func TestAllocWaiterCycle(t *testing.T) {
	e := sim.NewEngine()
	defer e.Kill()
	w := new(sim.Waiter)
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

// An event is 48 B: the 8 B bucket-list link grew it from 40 B, and the
// byte naming the structure that holds it sits in what was padding. Every
// pending event and every free slot is one of these.
func TestAllocEventSize(t *testing.T) {
	if got := sim.EventSize; got > 48 {
		t.Fatalf("an event is %d B, want at most 48", got)
	}
}

// A facility is 32 B: engine, free-at time, busy time and request count.
// Its owner holds it by value (a NIC three, a link one), so a field added
// here grows every NIC and every link.
func TestAllocFacilitySize(t *testing.T) {
	if got := unsafe.Sizeof(sim.Facility{}); got != 32 {
		t.Errorf("sim.Facility is %d B, was 32", got)
	}
}

// What an engine costs before it schedules anything: 2 360 B — the Engine
// with its 256-bucket ring inline (2 304 B with the malloc header), the
// process map and domain 0's sequence counter. Every cluster build pays it.
func TestAllocNewEngineBytes(t *testing.T) {
	if got := unsafe.Sizeof(sim.Engine{}); got > 2296 {
		t.Errorf("sim.Engine is %d B, want at most 2296: with its 8 B malloc header it then fits the 2 304 B size class, not 2 688 B", got)
	}
	const n = 100
	engines := make([]*sim.Engine, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 2360 {
		t.Errorf("NewEngine allocates %d B, want at most 2360", per)
	}
	if objs := (after.Mallocs - before.Mallocs) / n; objs > 3 {
		t.Errorf("NewEngine allocates %d objects, want at most 3", objs)
	}
}
