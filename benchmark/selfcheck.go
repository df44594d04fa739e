package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// selfReps is how many repetitions of each variant a self-check trial runs.
const selfReps = 7

// trial runs selfReps repetitions of every variant, interleaved — variant
// 0, 1, …, then again — so a slow minute of the box slows all of them
// alike, and folds each variant's repetitions as a timed run would. A
// non-nil round is called before each round.
func trial(round func(), variants ...plan) ([]report, [][]repResult, error) {
	per := make([][]repResult, len(variants))
	for k := 0; k < selfReps; k++ {
		if round != nil {
			round()
		}
		for i, pl := range variants {
			res, err := measure(pl.mk(false, nil), nil, false, pl.tailPct)
			if err != nil {
				return nil, nil, err
			}
			per[i] = append(per[i], res)
		}
	}
	reps := make([]report, len(variants))
	for i, rs := range per {
		summarize(rs, &reps[i])
	}
	return reps, per, nil
}

// failures sums the failed operations of every variant.
func failures(reps []report) (n int) {
	for _, r := range reps {
		n += r.failed
	}
	return n
}

// pickRes returns f of every repetition.
func pickRes(rs []repResult, f func(repResult) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return v
}

// paired is the median over repetitions of f applied to the k-th repetition
// of variant a and the k-th of variant b, which ran back to back.
func paired(a, b []repResult, f func(a, b repResult) float64) float64 {
	v := make([]float64, len(a))
	for k := range a {
		v[k] = f(a[k], b[k])
	}
	return median(v)
}

// work counts what one repetition asked of the simulator: events fired,
// or — where the harness hides its engines — figure points measured.
func work(r repResult) float64 {
	if r.out.events > 0 {
		return float64(r.out.events)
	}
	return float64(r.out.attempted)
}

// selfCheck is the evidence that the numbers measure the program: (a)
// doubling the operations doubles run_s, cpu_s and the work count on every
// workload; (b) burning a calibrated 200 ns or more in a fire hook on every
// event raises the host clock by events × that cost and leaves the model
// clock untouched; (c) no end-to-end metric reads the same on two
// workloads. It reports true when every check passed. -workload narrows it
// to one workload, -scale sets the base scale of (a).
func selfCheck(w io.Writer, cfg config) bool {
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, d := range workloads {
			names = append(names, d.name)
		}
	}
	ok := true
	check := func(pass bool, format string, args ...any) {
		verdict := "PASS"
		if !pass {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(w, "  [%s] %s\n", verdict, fmt.Sprintf(format, args...))
	}

	fmt.Fprintf(w, "self-check, seed %d, %d interleaved repetitions per variant\n", cfg.seed, selfReps)
	base := map[string]report{}
	for _, name := range names {
		fmt.Fprintf(w, "%s\n", name)
		c := config{workload: name, seed: cfg.seed, scale: cfg.scale}
		c2 := c
		c2.scale *= 2
		one, err1 := newPlan(c)
		two, err2 := newPlan(c2)
		if err1 != nil || err2 != nil {
			check(false, "generate: %v %v", err1, err2)
			continue
		}
		reps, per, err := trial(nil, one, two)
		if err != nil || failures(reps) > 0 {
			check(false, "(a) scale x2: err=%v, %d operations failed", err, failures(reps))
			continue
		}
		base[name] = reps[0]
		for _, m := range []struct {
			name string
			of   func(repResult) float64
		}{
			{"run_s", func(r repResult) float64 { return r.host.runS }},
			{"cpu_s", func(r repResult) float64 { return r.host.cpuS }},
			{"work (events, or figure points)", work},
		} {
			ratio := paired(per[0], per[1], func(a, b repResult) float64 { return m.of(b) / m.of(a) })
			check(ratio >= 1.8 && ratio <= 2.2, "(a) scale x2: %s %.4g -> %.4g, paired ratio x%.2f (want 1.8-2.2)",
				m.name, median(pickRes(per[0], m.of)), median(pickRes(per[1], m.of)), ratio)
		}
		if name == wlFigs {
			continue // (b) needs the engines, which the harness keeps to itself
		}
		spinCheck(check, c, per[0])
	}
	if len(base) > 1 {
		fmt.Fprintln(w, "across workloads")
		for _, d := range endToEnd {
			seen := map[float64]string{}
			distinct := true
			for _, name := range names {
				r, have := base[name]
				if !have {
					continue
				}
				v := r.e2e[d.name]
				if prev, dup := seen[v]; dup || v == 0 {
					distinct = false
					fmt.Fprintf(w, "    %s = %v on %s and %s\n", d.name, v, name, prev)
				}
				seen[v] = name
			}
			check(distinct, "(c) %s differs on every workload and is never 0", d.name)
		}
	}
	return ok
}

// spinCheck is check (b) on one cluster workload; base are its plain
// repetitions from check (a).
//
// The dose is 200 ns per event, or more where events are so few that 200 ns
// each would vanish in the run-to-run noise (install_2048: 165 K events in
// 2 s): at least half the timed section. It is injected twice, as one dose
// and as two, and the cost recovered is the difference: what merely having
// a hook costs (the call, and the part of the first spin that overlaps the
// event's own cache misses) is in both and cancels, and a dependent multiply
// chain takes the same time per step inside the event loop as in the
// calibration loop. The step is timed again before every round, with as
// many CPUs spinning as the run keeps busy: the box's clock rate, and how
// much of its second CPU it really has, change from minute to minute.
//
// A serial workload is judged on run_s with one CPU: simulated processes
// are goroutines, and with a second CPU every slower event gives that CPU's
// idle scheduler thread longer to park before the next hand-off wakes it,
// which the wall clock then shows as a cost that grows faster than the dose.
// The sharded workload needs both CPUs and is judged on the wall time its
// shards spent executing windows (Sharded.Stats, sim.shard_busy_s): run_s
// hides whatever part of the dose the two shards burn at the same time and
// cpu_s adds the runtime's spinning at every window barrier.
func spinCheck(check func(bool, string, ...any), c config, base []repResult) {
	clock, of, procs := "run_s", func(r repResult) float64 { return r.host.runS }, 1
	if base[0].out.shardBusyS > 0 {
		clock, of, procs = "sim.shard_busy_s", func(r repResult) float64 { return r.out.shardBusyS }, runtime.GOMAXPROCS(0)
	} else {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	events := work(base[0])
	steps := max(1, int(max(200, 0.25*median(pickRes(base, of))*1e9/events)/spinNsPerStep(procs)))
	variants := make([]plan, 3)
	for i := range variants {
		c.spin = i * steps
		pl, err := newPlan(c)
		if err != nil {
			check(false, "generate: %v", err)
			return
		}
		variants[i] = pl
	}
	var perStep []float64
	reps, per, err := trial(func() { perStep = append(perStep, spinNsPerStep(procs)) }, variants...)
	if err != nil || failures(reps) > 0 {
		check(false, "(b) fire hook: err=%v, %d operations failed", err, failures(reps))
		return
	}
	dose := float64(steps) * median(perStep)
	want := events * dose / 1e9
	got := paired(per[1], per[2], func(a, b repResult) float64 { return of(b) - of(a) })
	check(got >= 0.75*want && got <= 1.25*want,
		"(b) fire hook spinning %.0f ns per event (%d steps): %s %.3fs plain, %.3fs with one dose, %.3fs with two; the second dose cost %.3fs, events x dose = %.3fs, x%.2f (want 0.75-1.25)",
		dose, steps, clock, median(pickRes(per[0], of)), median(pickRes(per[1], of)), median(pickRes(per[2], of)), got, want, got/want)
	same := true
	for _, k := range modelClock {
		same = same && reps[0].e2e[k] == base[0].model[k] && reps[1].e2e[k] == reps[0].e2e[k] && reps[2].e2e[k] == reps[0].e2e[k]
	}
	check(same, "(b) spin hook: model clock bit-identical (virtual_ms %v, %v and %v)",
		reps[0].e2e["virtual_ms"], reps[1].e2e["virtual_ms"], reps[2].e2e["virtual_ms"])
}

// spinNsPerStep times the spin loop on procs goroutines at once and reports
// what one step costs on average.
func spinNsPerStep(procs int) float64 {
	const calls, steps = 200_000, 1000
	cost := make([]float64, procs)
	var wg sync.WaitGroup
	for i := range cost {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			t0 := time.Now()
			for c := 0; c < calls; c++ {
				sink += spin(steps)
			}
			cost[i] = float64(time.Since(t0).Nanoseconds()) / calls / steps
			atomic.AddUint64(&spinSink, sink)
		}()
	}
	wg.Wait()
	var sum float64
	for _, c := range cost {
		sum += c
	}
	return sum / float64(procs)
}
