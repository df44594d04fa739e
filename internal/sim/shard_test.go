package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestShardedRunAlignsClocks checks the coordinator's base contract: after
// Run, every engine's clock sits at the global maximum event time, so a
// serial run (one engine doing all the work) and a sharded run end at the
// same Now.
func TestShardedRunAlignsClocks(t *testing.T) {
	a, b := sim.NewEngine(), sim.NewEngine()
	var fired []int
	a.At(10, func() { fired = append(fired, 1) })
	a.At(30, func() { fired = append(fired, 2) })
	b.At(20, func() { fired = append(fired, 3) })
	sh := sim.NewSharded([]*sim.Engine{a, b}, 5, nil)
	sh.Run()
	if a.Now() != b.Now() {
		t.Fatalf("clocks diverge after Run: a=%v b=%v", a.Now(), b.Now())
	}
	if got := sh.Now(); got != 30 {
		t.Fatalf("Now() = %v, want 30", got)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
}

// TestShardedRunUntil checks bounded runs: events beyond the bound stay
// pending, clocks align exactly at the bound.
func TestShardedRunUntil(t *testing.T) {
	a, b := sim.NewEngine(), sim.NewEngine()
	ran := 0
	a.At(10, func() { ran++ })
	b.At(100, func() { ran++ })
	sh := sim.NewSharded([]*sim.Engine{a, b}, 7, nil)
	sh.RunUntil(50)
	if ran != 1 {
		t.Fatalf("ran %d events before t=50, want 1", ran)
	}
	if sh.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", sh.Now())
	}
	if sh.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", sh.Pending())
	}
	sh.Run()
	if ran != 2 || sh.Now() != 100 {
		t.Fatalf("after Run: ran=%d now=%v, want 2 events at t=100", ran, sh.Now())
	}
}

// TestShardedCrossEngineHandoff exercises the AllocKey/AtKey handoff the
// fabric uses: an event on engine a posts work to engine b one lookahead
// later via a mailbox drained at window barriers.
func TestShardedCrossEngineHandoff(t *testing.T) {
	const lookahead = sim.Time(10)
	a, b := sim.NewEngine(), sim.NewEngine()
	for _, e := range []*sim.Engine{a, b} {
		e.GrowDomains(2)
	}
	type msg struct {
		when  sim.Time
		key   uint64
		owner uint32
	}
	var box []msg
	var got []sim.Time
	// Chain: a fires at t, posts to b at t+lookahead; b records. Repeat a
	// few generations to cross several windows.
	var post func(t sim.Time, depth int)
	post = func(t sim.Time, depth int) {
		a.AtDomain(1, t, func() {
			box = append(box, msg{when: a.Now() + lookahead, key: a.AllocKey(2), owner: 2})
			if depth > 0 {
				post(a.Now()+lookahead, depth-1)
			}
		})
	}
	post(0, 3)
	drain := func() int {
		n := len(box)
		for _, m := range box {
			m := m
			b.AtKey(m.when, m.key, m.owner, func() { got = append(got, b.Now()) })
		}
		box = box[:0]
		return n
	}
	sh := sim.NewSharded([]*sim.Engine{a, b}, lookahead, drain)
	sh.Run()
	if len(got) != 4 {
		t.Fatalf("b received %d messages, want 4", len(got))
	}
	for i, at := range got {
		if want := sim.Time((i + 1) * int(lookahead)); at != want {
			t.Fatalf("message %d delivered at %v, want %v", i, at, want)
		}
	}
	st := sh.Stats()
	if st.Shards != 2 || st.CrossEvents != 4 || st.Windows == 0 {
		t.Fatalf("stats = %+v, want 2 shards, 4 cross events, >0 windows", st)
	}
	var perShard uint64
	for _, n := range st.Events {
		perShard += n
	}
	if perShard != sh.EventsFired() {
		t.Fatalf("stats events sum %d != EventsFired %d", perShard, sh.EventsFired())
	}
}

// TestShardedDeterministicTimeline runs the same two-engine program twice
// and demands identical fire sequences — the kernel-level determinism the
// cluster equivalence tests rely on.
func TestShardedDeterministicTimeline(t *testing.T) {
	type rec struct {
		when sim.Time
		key  uint64
	}
	run := func() [][]rec {
		a, b := sim.NewEngine(), sim.NewEngine()
		engines := []*sim.Engine{a, b}
		out := make([][]rec, 2)
		for i, e := range engines {
			i := i
			e.GrowDomains(4)
			e.SetFireHook(func(when sim.Time, key uint64) {
				out[i] = append(out[i], rec{when, key})
			})
		}
		for d := uint32(1); d <= 4; d++ {
			d := d
			e := engines[d%2]
			e.AtDomain(d, sim.Time(d), func() {
				e.AtDomain(d, e.Now()+3, func() {})
			})
		}
		sim.NewSharded(engines, 2, nil).Run()
		return out
	}
	x, y := run(), run()
	for s := range x {
		if len(x[s]) != len(y[s]) {
			t.Fatalf("shard %d fired %d vs %d events across runs", s, len(x[s]), len(y[s]))
		}
		for i := range x[s] {
			if x[s][i] != y[s][i] {
				t.Fatalf("shard %d event %d differs across runs: %+v vs %+v", s, i, x[s][i], y[s][i])
			}
		}
	}
}

// TestShardedSingleEngineDegenerate pins the n=1 fast path: no goroutines,
// same semantics.
func TestShardedSingleEngineDegenerate(t *testing.T) {
	e := sim.NewEngine()
	ran := false
	e.At(42, func() { ran = true })
	sh := sim.NewSharded([]*sim.Engine{e}, 3, nil)
	sh.Run()
	if !ran || e.Now() != 42 {
		t.Fatalf("degenerate run: ran=%v now=%v", ran, e.Now())
	}
}

// TestShardedValidation pins constructor contracts.
func TestShardedValidation(t *testing.T) {
	e := sim.NewEngine()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero lookahead", func() { sim.NewSharded([]*sim.Engine{e}, 0, nil) }},
		{"no engines", func() { sim.NewSharded(nil, 5, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// errShardEvent is what the panicking events below panic with, wrapped.
var errShardEvent = errors.New("shard event failed")

// busyPair returns two engines, each firing an event every 10 ns until
// 2000 ns, so that every window of a 50 ns lookahead pair has both shards
// busy and runs one of them on a worker. From 1000 ns on, shard fail's
// event calls boom first.
func busyPair(fail int, boom func()) []*sim.Engine {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	for d, e := range engines {
		var tick func()
		tick = func() {
			if d == fail && e.Now() >= 1000 {
				boom()
			}
			if e.Now() < 2000 {
				e.At(e.Now()+10, tick)
			}
		}
		e.At(sim.Time(d), tick)
	}
	return engines
}

// settledGoroutines waits briefly for exiting goroutines to be gone and
// reports how many are left. A goroutine still exiting from an earlier
// test may leave fewer than want.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestShardedEventPanic pins the exit paths of a window with two busy
// shards: a panic in an event, whether it fires on the coordinator's shard
// or on a worker's, comes out of Run on the caller's goroutine with its
// original value, as on a serial engine, and no worker outlives the run.
func TestShardedEventPanic(t *testing.T) {
	for fail := range 2 {
		t.Run(fmt.Sprintf("shard%d", fail), func(t *testing.T) {
			base := runtime.NumGoroutine()
			engines := busyPair(fail, func() { panic(fmt.Errorf("shard %d: %w", fail, errShardEvent)) })
			sh := sim.NewSharded(engines, 50, nil)
			func() {
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, errShardEvent) {
						t.Fatalf("Run panicked with %v, want %v", err, errShardEvent)
					}
				}()
				sh.Run()
			}()
			if st := sh.Stats(); st.Windows == 0 || st.Inline != 0 {
				t.Fatalf("stats = %+v, want the panic after windows with both shards busy", st)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after the panic, %d before Run", n, base)
			}
		})
	}
}

// TestShardedEventGoexit pins the other abnormal way out of an event,
// runtime.Goexit (what t.FailNow does inside a simulated process): on a
// worker's shard it ends the goroutine that called Run, as on a serial
// engine, and stops the workers.
func TestShardedEventGoexit(t *testing.T) {
	base := runtime.NumGoroutine()
	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		sim.NewSharded(busyPair(1, runtime.Goexit), 50, nil).Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after an event called runtime.Goexit")
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the Goexit, %d before Run", n, base)
	}
}
