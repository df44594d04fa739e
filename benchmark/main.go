// Command benchmark is the repository's benchmark: five workloads over the
// simulator, each run as identical in-process repetitions, measured on two
// clocks — host (what the simulator costs its user) and model (what the
// simulated NIC-based multicast achieves) — with every delivery verified.
//
//	go run ./benchmark -workload storm_small_512 -seed 1 -seconds 18 -trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness, operation counts and metrics; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/tree"
)

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "measure for about this many seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply every operation count (tests and the self-check)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for the traced run's span file")
	flag.BoolVar(&selfcheck, "selfcheck", false, "check that the metrics respond to load (not a timed run)")
	flag.Parse()
	cfg.trace = trace != 0

	// One driver goroutine plus at most one more shard goroutine: the
	// numbers are for a 2-core box whatever the machine offers.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if selfcheck {
		if !selfCheck(os.Stdout, cfg) {
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// A run that printed its result exits 0 even when operations failed:
	// the result line carries "correct": false and the failure count.
	if err := printReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// plan is a workload's generated input and its repetition factory.
type plan struct {
	sc      *scenario // nil for paper_figs_16
	mk      func(traced bool, tr *tracer) rep
	tailPct float64
}

// newPlan generates the workload's inputs from the seed.
func newPlan(cfg config) (plan, error) {
	var pl plan
	for _, d := range workloads {
		if d.name == cfg.workload {
			pl.tailPct = d.tailPct
		}
	}
	if cfg.workload == wlFigs {
		pl.mk = func(traced bool, _ *tracer) rep {
			return &figsWL{seed: cfg.seed, scale: cfg.scale, traced: traced}
		}
		return pl, nil
	}
	sc, err := newScenario(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return pl, err
	}
	pl.sc, pl.mk = sc, clusterReps(sc, cfg.spin)
	return pl, nil
}

func clusterReps(sc *scenario, spin int) func(bool, *tracer) rep {
	return func(traced bool, tr *tracer) rep {
		return &clusterWL{sc: sc, traced: traced, tr: tr, spin: spin}
	}
}

// runWorkload runs one workload as repetitions until the time budget is
// used: all untraced for the end-to-end metrics, or untraced and traced
// alternately for the per-layer metrics.
func runWorkload(cfg config, log io.Writer) (report, error) {
	var out report
	pl, err := newPlan(cfg)
	if err != nil {
		return out, err
	}
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	floor, step := 3, 1
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		// Untraced and traced repetitions alternate; the isolated kernels
		// and (on a sharded workload) the serial twin follow inside the
		// same budget.
		floor, step = 4, 2
		budget = budget * 2 / 3
	}

	var plain, traced []repResult
	for n := 1; ; n++ {
		isTraced := cfg.trace && n%2 == 0
		t0 := time.Now()
		var spans *tracer
		if isTraced && len(traced) == 0 {
			spans = tr // one repetition's spans say it all: the rest repeat it
		}
		// The workload span encloses the one recorded repetition and nothing
		// else, so every span's self time is its duration minus its children's.
		root := spans.begin("workload")
		res, err := measure(pl.mk(isTraced, spans), spans, isTraced, pl.tailPct)
		spans.end(root)
		if err != nil {
			return out, err
		}
		if isTraced {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		fmt.Fprintf(log, "rep %d traced=%v setup %.3fs run %.3fs cpu %.3fs live %.2fMB events %d failed %d\n",
			n, isTraced, res.host.setupS, res.host.runS, res.host.cpuS, res.host.liveMB, res.out.events, res.out.failed)
		if cfg.reps > 0 {
			if n >= cfg.reps {
				break
			}
			continue
		}
		next := time.Duration(step) * time.Since(t0)
		if n >= floor && n%step == 0 && time.Since(start)+next > budget {
			break
		}
	}

	summarize(plain, &out)
	out.tailPct = pl.tailPct
	if !cfg.trace {
		return out, nil
	}
	if len(traced) == 0 {
		return out, fmt.Errorf("-trace needs at least two repetitions")
	}
	// The traced run must reproduce the model clock bit for bit.
	sameModel(plain[0], traced, "traced repetition", &out)

	out.layers = medianLayers(traced)
	runS := pick(traced, func(h hostCost) float64 { return h.runS })
	out.layers["bench.trace_overhead_pct"] = 100 * (median(runS)/out.e2e["run_s"] - 1)
	out.layers["bench.rep_spread_pct"] = out.repSpreadPct
	if err := isolated(cfg, pl, &out, log); err != nil {
		return out, err
	}
	for _, d := range perLayer {
		if _, ok := out.layers[d.name]; !ok {
			out.layers[d.name] = 0 // the workload does not exercise this layer
		}
	}
	finite(out.layers)
	out.spanTotal, out.spanSelf = tr.selfTimes()
	path, err := tr.write(cfg.outDir, cfg.workload)
	if err != nil {
		return out, err
	}
	out.notes = append(out.notes, "spans written to "+path)
	return out, nil
}

// isolated adds what is measured apart from the repetitions: each layer's
// inner loop on its own, and — for a sharded workload — its serial twin,
// which gives the speed-up and (stepped event by event) the node/fabric
// split the sharded run cannot.
func isolated(cfg config, pl plan, out *report, log io.Writer) error {
	L := out.layers
	// A million events per kernel at full scale; tests run a sliver.
	n := max(10_000, int(1e6*min(1, cfg.scale)))
	L["bench.hook_ns_per_event"] = hookNsPerEvent(n)
	L["fabric.isolated_ns_per_hop"] = fabricNsPerHop()
	if pl.sc == nil {
		return nil
	}
	if pl.sc.shards > 1 {
		twin := *pl.sc
		twin.shards = 1
		mk := clusterReps(&twin, 0)
		serial, err := measure(mk(false, nil), nil, false, pl.tailPct)
		if err != nil {
			return err
		}
		stepped, err := measure(mk(true, nil), nil, true, pl.tailPct)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "serial twin run %.3fs, stepped %.3fs\n", serial.host.runS, stepped.host.runS)
		sameModel(serial, []repResult{stepped}, "stepped serial twin", out)
		for _, k := range modelClock {
			if serial.model[k] != out.e2e[k] {
				out.failed++
				out.notes = append(out.notes, fmt.Sprintf("serial twin: %s = %v, sharded run had %v", k, serial.model[k], out.e2e[k]))
			}
		}
		L["sim.shard_speedup_x"] = serial.host.runS / out.e2e["run_s"]
		for _, k := range []string{"sim.pending_p50", "sim.pending_max", "node.events", "node.wall_s", "node.share_pct",
			"node.ns_per_event", "fabric.switch_events", "fabric.wall_s", "fabric.share_pct"} {
			L[k] = stepped.layers[k]
		}
	}
	L["sim.kernel_ns_per_event"] = kernelNsPerEvent(int(L["sim.pending_p50"]), 2*n)
	L["sim.kernel_share_pct"] = pct(L["sim.kernel_ns_per_event"]*L["sim.events_fired"]/1e9, out.e2e["run_s"])
	g := pl.sc.groups[0]
	members := make([]fabric.NodeID, pl.sc.nodes)
	for i := range members {
		members[i] = fabric.NodeID(i)
	}
	L["tree.validate_us_per_node"] = validateUsPerNode(tree.Binomial(g.root, members))
	return nil
}

// printReport prints every metric by name with its unit, then the result
// object the driver reads as the last line.
func printReport(w io.Writer, cfg config, rep report) error {
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layers
	}
	fmt.Fprintf(w, "workload %s seed %d scale %g: %d repetitions, rep spread of run_s %.2f%%\n",
		cfg.workload, cfg.seed, cfg.scale, rep.reps, rep.repSpreadPct)
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", rep.attempted, rep.failed)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = metric{v, d.unit}
	}
	if !cfg.trace {
		fmt.Fprintf(w, "lat_us_tail is p%g of %d per-destination latency samples\n", 100*rep.tailPct, rep.latSamples)
	}
	for _, name := range sortedKeys(rep.spanTotal) {
		fmt.Fprintf(w, "span %-20s total %10.6f s  self %10.6f s\n", name, rep.spanTotal[name], rep.spanSelf[name])
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
