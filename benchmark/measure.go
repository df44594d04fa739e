package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// config is one invocation's request.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measure for about this long
	trace    bool
	scale    float64 // multiplies every workload's operation count
	reps     int     // fixed repetition count; 0 fills seconds
	outDir   string  // where the traced run writes its spans
	spin     int     // self-check: burn this many spin steps in a fire hook per event
}

// outcome is what one repetition's verification found, on the model clock.
type outcome struct {
	tally
	makespanNs int64
	events     uint64   // simulator events fired in the timed section (0: not observable)
	shardBusyS float64  // sharded engine: wall seconds the shards spent executing windows, summed
	notes      []string // what went wrong, for the report
}

// rep is one repetition of a workload: a fresh instance of the system
// under test, set up, run for the timed section, verified, torn down.
type rep interface {
	setup() error
	run()
	verify() outcome
	teardown()
	// layers reports the per-layer metrics of a traced repetition, from
	// what the other steps captured; called last.
	layers(host hostCost, out outcome) map[string]float64
}

// hostCost is what one repetition cost the simulator's user.
type hostCost struct {
	setupS, runS, cpuS, allocMB, liveMB float64
	gcCycles                            uint32
	gcPauseMs, gcCPUPct                 float64
	runBytes, runMallocs                uint64 // allocated during the timed section
}

// repResult is one measured repetition.
type repResult struct {
	host   hostCost
	out    outcome
	model  map[string]float64 // the model-clock end-to-end metrics
	layers map[string]float64
	// latSamples counts the latency samples behind lat_us_p50 and lat_us_tail.
	latSamples int
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the runtime's estimate of CPU time spent collecting so far.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure runs one repetition under the host clock.
func measure(r rep, tr *tracer, traced bool, tailPct float64) (repResult, error) {
	var res repResult
	runtime.GC()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)

	repSpan := tr.begin("rep")
	t0 := time.Now()
	if err := r.setup(); err != nil {
		return res, err
	}
	res.host.setupS = time.Since(t0).Seconds()

	runtime.ReadMemStats(&m1)
	gc0 := gcCPUSeconds()
	cpu0 := cpuSeconds()
	t1 := time.Now()
	runSpan := tr.begin("run")
	r.run()
	tr.end(runSpan)
	res.host.runS = time.Since(t1).Seconds()
	res.host.cpuS = cpuSeconds() - cpu0
	gcCPU := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m2)

	// Live heap: what the finished run still holds, before anything is
	// released and before verification allocates its samples.
	runtime.GC()
	runtime.ReadMemStats(&m3)
	res.host.liveMB = float64(m3.HeapAlloc) / 1e6
	res.host.allocMB = float64(m2.TotalAlloc-m0.TotalAlloc) / 1e6
	res.host.gcCycles = m2.NumGC - m1.NumGC
	res.host.gcPauseMs = float64(m2.PauseTotalNs-m1.PauseTotalNs) / 1e6
	res.host.runBytes = m2.TotalAlloc - m1.TotalAlloc
	res.host.runMallocs = m2.Mallocs - m1.Mallocs
	if res.host.cpuS > 0 {
		res.host.gcCPUPct = 100 * gcCPU / res.host.cpuS
	}

	id := tr.begin("verify")
	res.out = r.verify()
	tr.end(id)
	res.model = modelMetrics(res.out, tailPct)
	res.latSamples = len(res.out.lat)
	if tr != nil {
		// One model-clock span per verified operation, post → last receive.
		for i, op := range res.out.ops {
			tr.model(runSpan, fmt.Sprintf("op%d", i), op[0], op[1])
		}
	}
	id = tr.begin("teardown")
	r.teardown()
	tr.end(id)
	tr.end(repSpan)
	if traced {
		res.layers = r.layers(res.host, res.out)
	}
	// The samples are folded into the metrics; a result that kept them would
	// add to the live heap of every later repetition.
	res.out.lat, res.out.last, res.out.collUs, res.out.ops = nil, nil, nil, nil
	return res, nil
}

// modelMetrics derives the model-clock end-to-end metrics from a verified
// repetition; the tail latency is read at the workload's percentile.
func modelMetrics(o outcome, tailPct float64) map[string]float64 {
	m := map[string]float64{
		"virtual_ms":     float64(o.makespanNs) / 1e6,
		"lat_us_p50":     median(o.lat),
		"lat_us_tail":    stats.Percentile(o.lat, 100*tailPct),
		"last_rx_us_p50": median(o.last),
	}
	if o.makespanNs > 0 {
		m["agg_goodput_MBps"] = o.bytes / (float64(o.makespanNs) / 1e9) / 1e6
	}
	return m
}

// report is everything one invocation prints.
type report struct {
	e2e               map[string]float64
	layers            map[string]float64
	attempted, failed int
	reps              int
	tailPct           float64 // percentile lat_us_tail is read at
	latSamples        int     // latency samples behind lat_us_p50 and lat_us_tail
	repSpreadPct      float64
	// spanTotal and spanSelf are the traced repetition's host spans by
	// name: duration, and duration minus what child spans cover.
	spanTotal, spanSelf map[string]float64
	notes               []string
}

// pick returns the per-repetition values of one host-clock metric.
func pick(rs []repResult, f func(hostCost) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r.host)
	}
	return v
}

// summarize folds repetitions into the end-to-end metrics: host-clock
// metrics are medians over repetitions; model-clock metrics come from the
// first repetition and must repeat bit for bit in every other one.
func summarize(rs []repResult, rep *report) {
	rep.reps = len(rs)
	rep.e2e = map[string]float64{
		"setup_s":      median(pick(rs, func(h hostCost) float64 { return h.setupS })),
		"run_s":        median(pick(rs, func(h hostCost) float64 { return h.runS })),
		"cpu_s":        median(pick(rs, func(h hostCost) float64 { return h.cpuS })),
		"alloc_mb":     median(pick(rs, func(h hostCost) float64 { return h.allocMB })),
		"live_heap_mb": median(pick(rs, func(h hostCost) float64 { return h.liveMB })),
	}
	rep.repSpreadPct = spreadPct(pick(rs, func(h hostCost) float64 { return h.runS }))
	first := rs[0]
	for k, v := range first.model {
		rep.e2e[k] = v
	}
	rep.latSamples = first.latSamples
	sameModel(first, rs, "repetition", rep)
}

// sameModel counts rs's operations into rep and checks that each of them
// reproduces first's model-clock metrics exactly; every difference is a
// failure.
func sameModel(first repResult, rs []repResult, what string, rep *report) {
	for i, r := range rs {
		rep.attempted += r.out.attempted
		rep.failed += r.out.failed
		for _, n := range r.out.notes {
			rep.notes = append(rep.notes, fmt.Sprintf("%s %d: %s", what, i+1, n))
		}
		for _, k := range modelClock {
			if r.model[k] != first.model[k] {
				rep.failed++
				rep.notes = append(rep.notes, fmt.Sprintf("%s %d: %s = %v, expected %v (the model clock must repeat exactly)",
					what, i+1, k, r.model[k], first.model[k]))
			}
		}
	}
}

// medianLayers takes, per metric, the median over traced repetitions —
// counts repeat exactly, wall-derived numbers do not.
func medianLayers(rs []repResult) map[string]float64 {
	by := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.layers {
			by[k] = append(by[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range by {
		out[k] = median(v)
	}
	return out
}

// finite replaces NaN and ±Inf (an empty layer's ratio) by 0 so the result
// is always valid JSON.
func finite(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
