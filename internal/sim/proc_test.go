package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	e.Run()
	if wake != 100 {
		t.Fatalf("woke at %v, want 100", wake)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d live procs after completion, want 0", n)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	if len(first) != 9 {
		t.Fatalf("got %d entries, want 9", len(first))
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestWaiterWakeOne(t *testing.T) {
	e := NewEngine()
	w := new(Waiter)
	var order []string
	for _, name := range []string{"p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			w.Wait(p)
			order = append(order, name)
		})
	}
	e.At(50, func() { w.WakeOne() })
	e.At(60, func() { w.WakeOne() })
	e.Run()
	if len(order) != 2 || order[0] != "p1" || order[1] != "p2" {
		t.Fatalf("wake order %v, want [p1 p2]", order)
	}
	e.Kill()
}

func TestWaiterWakeAll(t *testing.T) {
	e := NewEngine()
	w := new(Waiter)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("p", func(p *Proc) {
			w.Wait(p)
			woken++
		})
	}
	e.At(10, func() { w.WakeAll() })
	e.Run()
	if woken != 5 {
		t.Fatalf("woke %d, want 5", woken)
	}
}

func TestWaiterPredicateLoop(t *testing.T) {
	e := NewEngine()
	w := new(Waiter)
	ready := false
	var sawReadyAt Time
	e.Spawn("consumer", func(p *Proc) {
		for !ready {
			w.Wait(p)
		}
		sawReadyAt = p.Now()
	})
	// Spurious wake at t=10 with predicate still false.
	e.At(10, func() { w.WakeAll() })
	e.At(20, func() { ready = true; w.WakeAll() })
	e.Run()
	if sawReadyAt != 20 {
		t.Fatalf("consumer proceeded at %v, want 20", sawReadyAt)
	}
}

// parkKinds are the two ways a process gives up control, each as a body
// that parks once and must never get past it.
var parkKinds = []struct {
	name string
	park func(p *Proc, w *Waiter)
}{
	{"Sleep", func(p *Proc, _ *Waiter) { p.Sleep(100) }},
	{"Wait", func(p *Proc, w *Waiter) { w.Wait(p) }},
}

func TestKillUnwindsEveryParkKind(t *testing.T) {
	for _, k := range parkKinds {
		t.Run(k.name, func(t *testing.T) {
			e := NewEngine()
			w := new(Waiter)
			var unwound, resumed bool
			p := e.Spawn("victim", func(p *Proc) {
				defer func() { unwound = true }()
				k.park(p, w)
				resumed = true
			})
			e.RunUntil(50)
			if p.Done() || e.LiveProcs() != 1 {
				t.Fatalf("before Kill: done=%v live=%d, want a parked process", p.Done(), e.LiveProcs())
			}
			e.Kill()
			if !unwound || resumed {
				t.Fatalf("unwound=%v resumed=%v, want the body unwound from its park", unwound, resumed)
			}
			if !p.Done() || e.LiveProcs() != 0 {
				t.Fatalf("after Kill: done=%v live=%d", p.Done(), e.LiveProcs())
			}
			e.Kill() // a second Kill finds nothing to do
			// The wake-up and the timeout the dead process left behind
			// still fire; neither may resume it.
			e.Run()
			if resumed {
				t.Fatal("a stale wake-up resumed a killed process")
			}
		})
	}
}

func TestKillNeverStartedProc(t *testing.T) {
	e := NewEngine()
	ran := false
	var child *Proc
	parent := e.Spawn("parent", func(p *Proc) {
		child = e.Spawn("child", func(*Proc) { ran = true })
		p.Sleep(10)
	})
	orphan := e.Spawn("orphan", func(*Proc) { ran = true })
	e.Step() // starts parent only: child and orphan still await their start event
	if child == nil || e.LiveProcs() != 3 {
		t.Fatalf("child=%v live=%d, want parent parked and two unstarted", child, e.LiveProcs())
	}
	e.Kill()
	if e.LiveProcs() != 0 || !parent.Done() || !child.Done() || !orphan.Done() {
		t.Fatalf("after Kill: live=%d parent=%v child=%v orphan=%v",
			e.LiveProcs(), parent.Done(), child.Done(), orphan.Done())
	}
	e.Run() // the start events are still queued
	if ran {
		t.Fatal("a process killed before its start event ran anyway")
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	w := new(Waiter)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		e.Spawn("bystander", func(p *Proc) { w.Wait(p) })
	}
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(10)
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v from Run, want the process's own panic value", got)
	}
	if e.Now() != 10 {
		t.Fatalf("panic surfaced at %v, want 10", e.Now())
	}
	if e.LiveProcs() != 2 {
		t.Fatalf("live procs = %d after the panic, want 2", e.LiveProcs())
	}
	e.Kill()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d after Kill, want 0", e.LiveProcs())
	}
}

// TestProcResumedInlineThenByShardWorker moves one process's resumes from
// the coordinator's goroutine to a shard worker's and back: never two at
// once, which is all a coroutine asks (run it under -race).
func TestProcResumedInlineThenByShardWorker(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	s := NewSharded([]*Engine{e0, e1}, 100, nil)
	wakes := 0
	e0.Spawn("mover", func(p *Proc) {
		for p.Now() < 1500 {
			p.Sleep(10)
			wakes++
		}
	})
	// Shard 1 is empty, so the mover's shard is the lone busy one and the
	// coordinator runs its windows inline.
	s.RunUntil(500)
	if st := s.Stats(); wakes != 50 || st.Inline == 0 || st.Inline != st.Windows {
		t.Fatalf("to 500: %d wakes, %d of %d windows inline; want 50 wakes, every window inline",
			wakes, st.Inline, st.Windows)
	}
	// A peer in step with the mover keeps both shards busy in every window
	// to 1000, so shard workers run them; after that the mover is alone again.
	inline := s.Stats().Inline
	e1.Spawn("peer", func(p *Proc) {
		for p.Now() < 1000 {
			p.Sleep(10)
		}
	})
	s.Run()
	st := s.Stats()
	if wakes != 150 || s.LiveProcs() != 0 {
		t.Fatalf("mover woke %d times with %d procs left, want 150 and 0", wakes, s.LiveProcs())
	}
	if worker := st.Windows - st.Inline; worker < 5 || st.Inline == inline {
		t.Fatalf("after 500: %d worker-run and %d more inline windows, want both", worker, st.Inline-inline)
	}
}

func TestKillReturnsEveryGoroutine(t *testing.T) {
	e := NewEngine()
	w := new(Waiter)
	for i := 0; i < 1000; i++ {
		k := parkKinds[i%len(parkKinds)]
		e.Spawn("p", func(p *Proc) { k.park(p, w) })
	}
	e.RunUntil(50)
	for i := 0; i < 100; i++ {
		e.Spawn("unstarted", func(*Proc) {})
	}
	// Measured against the count just before Kill, not one taken before
	// the spawns: a goroutine an earlier test left exiting may go at any time.
	before := runtime.NumGoroutine()
	e.Kill()
	if after := runtime.NumGoroutine(); after > before-1100 {
		t.Fatalf("%d goroutines before Kill, %d after: 1100 processes should have gone", before, after)
	}
}

func TestComputeAccountsBusyTime(t *testing.T) {
	e := NewEngine()
	var p0 *Proc
	e.Spawn("worker", func(p *Proc) {
		p0 = p
		p.Compute(40)
		p.Sleep(60)
		p.Compute(10)
	})
	e.Run()
	if p0.BusyTime() != 50 {
		t.Fatalf("busy time %v, want 50", p0.BusyTime())
	}
}

func TestBlockingCallOutsideProcPanics(t *testing.T) {
	e := NewEngine()
	var p0 *Proc
	e.Spawn("p", func(p *Proc) {
		p0 = p
		p.Sleep(10)
	})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("Sleep from outside process context did not panic")
		}
	}()
	p0.Sleep(1)
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childRan != 15 {
		t.Fatalf("child finished at %v, want 15", childRan)
	}
}

func TestFacilityFIFO(t *testing.T) {
	e := NewEngine()
	f := NewFacility(e)
	var done []Time
	e.At(0, func() {
		f.Do(10, func() { done = append(done, e.Now()) })
		f.Do(10, func() { done = append(done, e.Now()) })
	})
	e.At(5, func() {
		f.Do(10, func() { done = append(done, e.Now()) })
	})
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
	if f.Requests() != 3 {
		t.Fatalf("requests = %d, want 3", f.Requests())
	}
	if f.BusyTime() != 30 {
		t.Fatalf("busy = %v, want 30", f.BusyTime())
	}
}

func TestFacilityIdleGap(t *testing.T) {
	e := NewEngine()
	f := NewFacility(e)
	var second Time
	e.At(0, func() { f.Do(10, func() {}) })
	e.At(50, func() { f.Do(10, func() { second = e.Now() }) })
	e.Run()
	if second != 60 {
		t.Fatalf("second completion at %v, want 60 (idle gap not preserved)", second)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Intn(1<<30) != c.Intn(1<<30) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestRNGLazySourceMatchesEagerStream pins that seeding on the first draw
// changes nothing but when the source is built: the first 1 000 draws, a
// mix of every kind, are those of rand.New(rand.NewSource(seed)), and a
// draw that needs no randomness builds no source.
func TestRNGLazySourceMatchesEagerStream(t *testing.T) {
	const seed = 42
	g, want := NewRNG(seed), rand.New(rand.NewSource(seed))
	if g.Bernoulli(0) || g.src != nil {
		t.Fatal("Bernoulli(0) built the source")
	}
	got, exp := make([]byte, 7), make([]byte, 7)
	for i := 0; i < 1000; i++ {
		ok := true
		switch i % 4 {
		case 0:
			ok = g.Float64() == want.Float64()
		case 1:
			ok = g.Intn(1000) == want.Intn(1000)
		case 2:
			ok = slices.Equal(g.Perm(6), want.Perm(6))
		case 3:
			for j := range got {
				got[j], exp[j] = byte(g.Intn(256)), byte(want.Intn(256))
			}
			ok = bytes.Equal(got, exp)
		}
		if !ok {
			t.Fatalf("draw %d differs from the eagerly seeded stream", i)
		}
	}
}

func TestRNGSymmetricDuration(t *testing.T) {
	g := NewRNG(7)
	const max = Time(1000)
	var lo, hi bool
	for i := 0; i < 10000; i++ {
		v := g.SymmetricDuration(max)
		if v < -max/2 || v >= max/2 {
			t.Fatalf("value %d outside [-%d, %d)", v, max/2, max/2)
		}
		if v < 0 {
			lo = true
		}
		if v > 0 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatal("distribution is one-sided")
	}
	if g.SymmetricDuration(0) != 0 {
		t.Fatal("zero max must give zero skew")
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}
