package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 10, 90, 0} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{0, 10, 10, 30, 50, 90}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 105 {
		t.Fatalf("After fired at %v, want 105", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(10)
	e.At(5, func() { tm.Stop() })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if tm.Pending() {
		t.Fatal("cancelled event still pending")
	}
	// Cancelling again must be a no-op.
	if tm.Stop() {
		t.Fatal("a second Stop reported the timer armed")
	}
}

// A timer armed inside a domain-2 event is owned by domain 2: re-armed
// from ambient code or from a domain-3 event, it still fires with domain 2
// current. Its key comes from the domain that re-arms it, or from domain 2
// when ambient code does, which decides its place beside a domain-3 event
// at the same instant.
func TestTimerResetKeepsOwnerAndKey(t *testing.T) {
	for _, c := range []struct {
		name    string
		from    uint32 // 0 for ambient code
		keyDom  uint64
		ordered []string
	}{
		{"ambient", 0, 2, []string{"timer", "marker"}},
		{"domain 3", 3, 3, []string{"marker", "timer"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.GrowDomains(3)
			var order []string
			var keys []uint64
			var firedIn uint32
			e.SetFireHook(func(when Time, k uint64) {
				if when == 100 {
					keys = append(keys, k)
				}
			})
			tm := e.NewTimer(func() { order = append(order, "timer"); firedIn = e.curDom })
			e.AtDomain(2, 10, func() { tm.Reset(1000) })
			e.RunUntil(10)
			e.AtDomain(3, 100, func() { order = append(order, "marker") })
			if c.from == 0 {
				tm.Reset(100)
			} else {
				e.AtDomain(c.from, 20, func() { tm.Reset(100) })
			}
			e.Run()
			if !slices.Equal(order, c.ordered) {
				t.Fatalf("fired %v at 100, want %v", order, c.ordered)
			}
			if firedIn != 2 {
				t.Errorf("timer fired with domain %d current, want its owner 2", firedIn)
			}
			if d := keys[slices.Index(order, "timer")] >> (64 - domainBits); d != c.keyDom {
				t.Errorf("timer's key is from domain %d, want %d", d, c.keyDom)
			}
		})
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 1 {
		t.Fatalf("fired %d events by t=20, want 1", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v, want 20", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestEngineStepReportsExhaustion(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine reported work")
	}
	e.At(1, func() {})
	if !e.Step() {
		t.Fatal("Step with pending event reported no work")
	}
}

// Property: however events are scheduled, they fire in nondecreasing time
// order and the count matches.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, raw := range times {
			e.At(Time(raw), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{12 * Microsecond, "12.000µs"},
		{34*Millisecond + 500*Microsecond, "34.500ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestPerByte(t *testing.T) {
	if got := PerByte(4.0, 1000); got != 4000 {
		t.Errorf("PerByte(4, 1000) = %v, want 4000", got)
	}
	if got := PerByte(2.2, 10); got != 22 {
		t.Errorf("PerByte(2.2, 10) = %v, want 22", got)
	}
	if got := PerByte(0.5, 1); got != 1 { // rounds to nearest
		t.Errorf("PerByte(0.5, 1) = %v, want 1", got)
	}
}

func TestMicrosRoundTrip(t *testing.T) {
	d := Micros(7.5)
	if d != 7500*Nanosecond {
		t.Fatalf("Micros(7.5) = %v, want 7500ns", int64(d))
	}
	if d.Micros() != 7.5 {
		t.Fatalf("Micros() = %v, want 7.5", d.Micros())
	}
}
