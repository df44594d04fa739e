package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"

	"repro/internal/sim"
)

// TestMain shortens the one fixed-length kernel timing (testing.Benchmark
// of the legacy packet storm, a second by default): the tests check that
// the number exists, not what it is.
func TestMain(m *testing.M) {
	flag.Parse()
	if err := flag.Set("test.benchtime", "50ms"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tiny is the scale the tests run at: every workload keeps its host count
// and shape but posts a handful of operations.
const tiny = 0.02

// exercised lists, per workload, per-layer metrics that must be non-zero
// because the workload drives that layer. Everything else may be 0.
var exercised = map[string][]string{
	wlStorm: {"sim.events_fired", "sim.ns_per_event", "sim.kernel_ns_per_event", "sim.pending_max",
		"node.events", "node.wall_s", "fabric.switch_events", "fabric.injected", "fabric.delivered",
		"lanai.cpu_busy_pct", "lanai.root_cpu_busy_pct", "lanai.rdma_busy_pct",
		"core.mcast_sent", "core.mcast_forwarded", "core.header_rewrites", "core.acks_sent",
		"core.install_wall_s", "tree.depth", "tree.max_fanout", "tree.validate_us_per_node",
		"cluster.build_wall_s", "runtime.bytes_per_event", "bench.hook_ns_per_event", "fabric.isolated_ns_per_hop"},
	wlBulk: {"sim.events_fired", "sim.shard_windows", "sim.shard_cross_events", "sim.shard_busy_s", "sim.shard_speedup_x",
		"node.events", "fabric.switch_events", "fabric.injected", "lanai.rdma_busy_pct",
		"core.mcast_forwarded", "core.forwards_before_full", "core.install_wall_s", "cluster.build_wall_s"},
	wlInstall: {"sim.events_fired", "node.events", "core.mcast_sent", "core.install_wall_s",
		"core.install_us_per_member", "core.install_virtual_us", "tree.build_wall_s", "tree.validate_us_per_node",
		"cluster.build_wall_s", "cluster.build_us_per_node"},
	wlLossy: {"sim.events_fired", "fabric.dropped", "gm.data_sent", "gm.acks_sent", "gm.useful_pct",
		"core.mcast_sent", "core.retransmits", "coll.barriers_done", "coll.reduces_done", "coll.op_virtual_us_p50"},
	wlFigs: {"harness.points", "harness.point_wall_ms_p50", "harness.fig3_wall_s", "harness.fig5_wall_s", "mpi.fig4_wall_s",
		"harness.fig3_factor", "harness.fig5_small_factor", "harness.fig5_16k_factor", "harness.fig4_factor",
		"harness.paper_err_pct", "fabric.injected", "gm.data_sent", "core.mcast_sent", "runtime.gc_cycles"},
}

func tracedRun(t *testing.T, name string, seed int64) report {
	t.Helper()
	rep, err := runWorkload(config{workload: name, seed: seed, scale: tiny, reps: 2, trace: true, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, n := range rep.notes {
		t.Logf("%s: %s", name, n)
	}
	return rep
}

// TestWorkloadsVerifyAndEmitEveryMetric runs each workload once untraced
// and once traced (one invocation does both), and checks that every
// operation verified, that the traced repetition reproduced the model clock
// bit for bit (runWorkload counts any difference as a failure), and that
// all declared metrics come out finite — non-zero where the workload
// exercises the layer.
func TestWorkloadsVerifyAndEmitEveryMetric(t *testing.T) {
	for _, d := range workloads {
		if testing.Short() && (d.name == wlBulk || d.name == wlInstall) {
			continue // the thousand-host builds are slow under the race detector
		}
		t.Run(d.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a wall-clock value
			rep := tracedRun(t, d.name, 1)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, m := range endToEnd {
				v, ok := rep.e2e[m.name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v (present %v): want finite and non-zero", m.name, v, ok)
				}
			}
			for _, m := range perLayer {
				v, ok := rep.layers[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v): want finite", m.name, v, ok)
				}
			}
			if len(rep.layers) != len(perLayer) {
				t.Errorf("traced run emitted %d per-layer metrics, %d are declared", len(rep.layers), len(perLayer))
			}
			for _, name := range exercised[d.name] {
				if rep.layers[name] == 0 {
					t.Errorf("per-layer %s = 0 on a workload that exercises it", name)
				}
			}
			if d.name != wlLossy {
				for _, name := range []string{"gm.retransmits", "core.retransmits", "coll.retransmits", "fabric.dropped"} {
					if rep.layers[name] != 0 {
						t.Errorf("%s = %v on a loss-free workload", name, rep.layers[name])
					}
				}
			}
		})
	}
}

// TestSeedDeterminesModelClock: the same seed gives bit-identical
// model-clock metrics in separate runs, another seed changes them.
func TestSeedDeterminesModelClock(t *testing.T) {
	run := func(seed int64) map[string]float64 {
		rep, err := runWorkload(config{workload: wlLossy, seed: seed, scale: tiny, reps: 1}, io.Discard)
		if err != nil || rep.failed != 0 {
			t.Fatalf("seed %d: err %v, %d failed", seed, err, rep.failed)
		}
		return rep.e2e
	}
	a, b, other := run(1), run(1), run(2)
	changed := false
	for _, k := range modelClock {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v with the same seed", k, a[k], b[k])
		}
		changed = changed || a[k] != other[k]
	}
	if !changed {
		t.Errorf("seed 2 reproduced every model-clock metric of seed 1: %v", a)
	}
}

// TestLiveHeapBoundedAcrossRepetitions: receivers keep a fixed ring of
// buffers posted, so what a finished repetition still holds must not grow
// from the first repetition to the last.
func TestLiveHeapBoundedAcrossRepetitions(t *testing.T) {
	pl, err := newPlan(config{workload: wlStorm, seed: 1, scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var live []float64
	for i := 0; i < 4; i++ {
		res, err := measure(pl.mk(false, nil), nil, false, pl.tailPct)
		if err != nil || res.out.failed != 0 {
			t.Fatalf("repetition %d: err %v, %d failed", i+1, err, res.out.failed)
		}
		live = append(live, res.host.liveMB)
	}
	first, last := live[0], live[len(live)-1]
	if math.Abs(last/first-1) > 0.05 {
		t.Errorf("live heap %.3f MB after repetition 1, %.3f MB after repetition %d: more than 5%% apart (%v)", first, last, len(live), live)
	}
}

// TestLedgerCatchesBadDeliveries: the verifier is not vacuous — a missing,
// duplicated, reordered or corrupted delivery fails its operation (a
// reordering fails both messages that swapped places).
func TestLedgerCatchesBadDeliveries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type delivery struct {
		op      int
		corrupt bool
	}
	cases := []struct {
		name       string
		deliveries []delivery // to host 1, in arrival order; host 2 always gets both
		wantFailed int
	}{
		{"clean", []delivery{{op: 0}, {op: 1}}, 0},
		{"missing", []delivery{{op: 0}}, 1},
		{"duplicate", []delivery{{op: 0}, {op: 0}, {op: 1}}, 1},
		{"reordered", []delivery{{op: 1}, {op: 0}}, 2},
		{"corrupt", []delivery{{op: 0}, {op: 1, corrupt: true}}, 1},
	}
	for _, tc := range cases {
		led := newLedger(3)
		var msgs [][]byte
		for k := 0; k < 2; k++ {
			m := makePayload(rng, 64)
			op := led.add(opMcast, 0, len(m), 3)
			stampHeader(m, op, uint32(k))
			led.ops[op].post = 1
			msgs = append(msgs, m)
		}
		h1, h2 := led.receiver(1), led.receiver(2)
		for _, d := range tc.deliveries {
			m := append([]byte(nil), msgs[d.op]...)
			if d.corrupt {
				m[40] ^= 1
			}
			h1.accept(m, 0, 1, sim.Time(10+d.op))
		}
		for k, m := range msgs {
			h2.accept(m, 0, 2, sim.Time(10+k))
		}
		if got := led.settle(); got.failed != tc.wantFailed || got.attempted != 2 {
			t.Errorf("%s: %d of %d operations failed, want %d of 2", tc.name, got.failed, got.attempted, tc.wantFailed)
		}
	}
}

// TestBenchmarkJSONMatchesRunner: BENCHMARK.json parses, and its workload
// and metric names, units, directions and bounds are the runner's.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) != 3 || doc.Command[0] != "go" || doc.Command[1] != "run" || doc.Command[2] != "./benchmark" {
		t.Errorf("command %v, want go run ./benchmark", doc.Command)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the runner has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the runner has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, the runner has %d", len(got), kind, len(want))
		}
		for i, m := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != better {
				t.Errorf("%s metric %d is %+v, the runner has %+v", kind, i, m, want[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %q (%q): name or unit uses characters outside the contract", kind, m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != want[i].bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s metric %q: bound %v, the runner has %v (must be in (0, 0.25])", kind, m.Name, m.Bound, want[i].bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s metric %q has a bound", kind, m.Name)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}
