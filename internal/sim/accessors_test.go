package sim

import "testing"

func TestEventAccessors(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	tm.Reset(42)
	if tm.When() != 42 {
		t.Fatalf("When = %v", tm.When())
	}
	if !tm.Pending() {
		t.Fatal("freshly armed timer not pending")
	}
	e.Run()
	if tm.Pending() || tm.When() != 0 {
		t.Fatalf("fired timer: Pending %v, When %v", tm.Pending(), tm.When())
	}
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d", e.EventsFired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(50, func() { fired++ })
	e.At(150, func() { fired++ })
	e.RunUntil(e.Now() + 100)
	if fired != 1 || e.Now() != 100 {
		t.Fatalf("fired=%d now=%v after running 100 on", fired, e.Now())
	}
	e.RunUntil(e.Now() + 100)
	if fired != 2 || e.Now() != 200 {
		t.Fatalf("fired=%d now=%v after running 100 more", fired, e.Now())
	}
}

func TestFacilityAccessors(t *testing.T) {
	e := NewEngine()
	f := NewFacility(e)
	f.Do(100, func() {})
	if f.FreeAt() != 100 {
		t.Fatalf("FreeAt = %v", f.FreeAt())
	}
	if u := f.Utilization(); u != 0 {
		t.Fatalf("utilization at t=0 should be 0, got %v", u)
	}
	e.Run()
	e.RunUntil(200)
	// 100 busy out of 200 elapsed.
	if u := f.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestFacilityUtilizationExcludesFutureBookings(t *testing.T) {
	e := NewEngine()
	f := NewFacility(e)
	e.At(10, func() { f.Reserve(1000) })
	e.RunUntil(20)
	if u := f.Utilization(); u > 0.51 {
		t.Fatalf("utilization %v counts future booked time", u)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	var p0 *Proc
	e.Spawn("worker", func(p *Proc) {
		p0 = p
		if p.Name() != "worker" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine mismatch")
		}
		if p.Done() {
			t.Error("running proc reports done")
		}
		p.Sleep(10)
	})
	e.Run()
	if !p0.Done() {
		t.Fatal("finished proc not done")
	}
}

func TestKilledErrorMessage(t *testing.T) {
	err := killedError{name: "proc7"}
	if err.Error() != "sim: process killed: proc7" {
		t.Fatalf("message %q", err.Error())
	}
}

func TestRNGHelpers(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 100; i++ {
		if v := g.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := g.Int63n(50); v < 0 || v >= 50 {
			t.Fatalf("Int63n out of range: %v", v)
		}
		if v := g.Duration(100); v < 0 || v >= 100 {
			t.Fatalf("Duration out of range: %v", v)
		}
	}
	if g.Duration(0) != 0 {
		t.Fatal("Duration(0) != 0")
	}
	p := g.Perm(6)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Perm not a permutation: %v", p)
	}
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(g.Intn(256))
	}
	allZero := true
	for _, x := range b {
		if x != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("64 drawn bytes are all zero")
	}
}

func TestNegativeSleepIsImmediate(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("negative sleep resumed at %v", at)
	}
}

func TestKillFromInsideProcPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Kill()
	})
	e.Run()
	if !panicked {
		t.Fatal("Kill from inside a process did not panic")
	}
}
