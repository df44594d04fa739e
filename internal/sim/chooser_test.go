package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// chooserWorkload schedules a small cross-domain workload with plenty of
// same-timestamp ties: three domains each schedule a chain of events where
// every firing schedules a follow-up at a timestamp shared with the other
// domains. Returns the fired (when, key) timeline.
func chooserWorkload(t *testing.T, choose func(n int) int) []string {
	t.Helper()
	e := NewEngine()
	e.GrowDomains(3)
	var timeline []string
	e.SetFireHook(func(when Time, key uint64) {
		timeline = append(timeline, fmt.Sprintf("%d/%d:%d", when, key>>(64-domainBits), key&(1<<(64-domainBits)-1)))
	})
	if choose != nil {
		e.SetChooser(choose)
	}
	var step func(d uint32, round int)
	step = func(d uint32, round int) {
		if round >= 4 {
			return
		}
		// All domains land on the same timestamps: 10, 20, 30, 40.
		e.AtDomain(d, Time(10*(round+1)), func() { step(d, round+1) })
	}
	for d := uint32(1); d <= 3; d++ {
		e.WithDomain(d, func() { step(d, 0) })
	}
	e.Run()
	return timeline
}

// TestChooserDefaultEquivalent pins that a chooser returning 0 reproduces
// the uncontrolled FIFO timeline bit for bit — the property replay relies on.
func TestChooserDefaultEquivalent(t *testing.T) {
	base := chooserWorkload(t, nil)
	zero := chooserWorkload(t, func(n int) int { return 0 })
	if !reflect.DeepEqual(base, zero) {
		t.Fatalf("chooser(0) timeline differs from default:\nbase: %v\nzero: %v", base, zero)
	}
	if len(base) != 12 {
		t.Fatalf("expected 12 fired events, got %d", len(base))
	}
}

// TestChooserPermutesCrossDomainTies pins that a non-default pick reorders
// genuinely concurrent (cross-domain, same-timestamp) events, and that the
// chooser is consulted exactly at the tie points.
func TestChooserPermutesCrossDomainTies(t *testing.T) {
	calls := 0
	perm := chooserWorkload(t, func(n int) int {
		calls++
		return n - 1 // always fire the highest-key candidate
	})
	base := chooserWorkload(t, nil)
	if reflect.DeepEqual(base, perm) {
		t.Fatalf("chooser picking last candidate produced the default timeline")
	}
	if calls == 0 {
		t.Fatalf("chooser was never consulted despite cross-domain ties")
	}
	// Same multiset of events either way: permutation, not mutation.
	seen := map[string]int{}
	for _, s := range base {
		seen[s]++
	}
	for _, s := range perm {
		seen[s]--
	}
	for s, c := range seen {
		if c != 0 {
			t.Fatalf("event %s count differs by %d between schedules", s, c)
		}
	}
}

// TestChooserPreservesDomainFIFO pins the soundness constraint: two events
// of the SAME domain at the same timestamp are never both enabled, so no
// chooser can reorder an entity against itself.
func TestChooserPreservesDomainFIFO(t *testing.T) {
	e := NewEngine()
	e.GrowDomains(2)
	var order []int
	// Domain 1 schedules events A then B at the same timestamp; domain 2
	// one event C at that timestamp. The chooser always picks the last
	// candidate, which must never be B-before-A.
	e.SetChooser(func(n int) int { return n - 1 })
	e.WithDomain(1, func() {
		e.At(5, func() { order = append(order, 1) })
		e.At(5, func() { order = append(order, 2) })
	})
	e.WithDomain(2, func() {
		e.At(5, func() { order = append(order, 3) })
	})
	e.Run()
	if len(order) != 3 {
		t.Fatalf("fired %d events, want 3", len(order))
	}
	posA, posB := -1, -1
	for i, v := range order {
		switch v {
		case 1:
			posA = i
		case 2:
			posB = i
		}
	}
	if posA > posB {
		t.Fatalf("domain-internal FIFO violated: order %v fires B before A", order)
	}
	if order[0] != 3 {
		t.Fatalf("chooser pick ignored: order %v, want domain 2 event first", order)
	}
}

// TestChooserOutOfRangeClamped pins that wild chooser returns are reduced
// into range rather than panicking — schedules encode raw uint32 picks.
func TestChooserOutOfRangeClamped(t *testing.T) {
	for _, wild := range []int{7, 1 << 20, -3} {
		e := NewEngine()
		e.GrowDomains(2)
		fired := 0
		e.SetChooser(func(n int) int { return wild })
		e.WithDomain(1, func() { e.At(5, func() { fired++ }) })
		e.WithDomain(2, func() { e.At(5, func() { fired++ }) })
		e.Run()
		if fired != 2 {
			t.Fatalf("chooser return %d: fired %d events, want 2", wild, fired)
		}
	}
}

// TestChooserScanDoesNotAllocate pins that building the enabled set — a
// walk of the run's tail, the near heap and the far heap — reuses
// one candidate buffer: three domains tie at every step's timestamp while
// a timer stays armed in the far heap.
func TestChooserScanDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	e.GrowDomains(3)
	calls := 0
	e.SetChooser(func(n int) int {
		calls++
		return n - 1
	})
	fn := func() {}
	far := e.NewTimer(fn)
	round := func() {
		at := e.Now() + 64
		for d := uint32(1); d <= 3; d++ {
			e.AtDomain(d, at, fn)
		}
		far.Reset(e.Now() + Millisecond)
		for i := 0; i < 3; i++ {
			e.Step()
		}
	}
	round()
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Fatalf("a chooser round allocates %.1f objects, want 0", avg)
	}
	if calls == 0 {
		t.Fatal("the chooser was never consulted")
	}
}
