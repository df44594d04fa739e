package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BENCH_history.jsonl is the repository's performance history: one JSON
// object per line, one line per PR in ascending PR order, each the PR's
// parent/change comparison with benchmark/aa.sh. A field the PR did not
// state is left out. Per "<workload>/<metric>" key a change is given as
// median_pair_pct (median over same-seed pairs of change/parent − 1),
// median_pct (change median / parent median − 1, across seeds), pct (a
// change stated without naming which of the two it is) and better_pairs
// (pairs on which the change was better), all in percent but the last.

// benchRun is one parent/change comparison.
type benchRun struct {
	Command             string                  `json:"command"`
	Pairs               int                     `json:"pairs"`
	FailedOps           *int                    `json:"failed_ops"`
	ModelClockIdentical bool                    `json:"model_clock_identical"`
	Metrics             map[string]metricChange `json:"metrics"`
	Note                string                  `json:"note"`
}

type metricChange struct {
	MedianPairPct *float64 `json:"median_pair_pct"`
	MedianPct     *float64 `json:"median_pct"`
	Pct           *float64 `json:"pct"`
	BetterPairs   *int     `json:"better_pairs"`
}

// benchRecord is one line of the history: a PR's comparison, plus a later
// re-check of the same commit when one was made.
type benchRecord struct {
	PR     int     `json:"pr"`
	Commit string  `json:"commit"`
	Kind   string  `json:"kind"`
	Claim  *string `json:"claim"`
	Box    string  `json:"box"`
	Cores  int     `json:"cores"`
	Go     string  `json:"go"`
	benchRun
	Recheck *benchRun `json:"recheck"`
}

// benchmarkNames reads the workload and metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (workloads, metrics map[string]bool) {
	t.Helper()
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct {
		Name string `json:"name"`
	}
	var spec struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics = map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	return workloads, metrics
}

func TestBenchHistorySchema(t *testing.T) {
	workloads, metrics := benchmarkNames(t)
	validKey := func(key string) bool {
		w, m, ok := strings.Cut(key, "/")
		return ok && workloads[w] && metrics[m]
	}
	checkRun := func(where string, r *benchRun) {
		for key, c := range r.Metrics {
			if !validKey(key) {
				t.Errorf("%s: metric key %q is not <workload>/<metric> of BENCHMARK.json", where, key)
			}
			if c.MedianPairPct == nil && c.MedianPct == nil && c.Pct == nil && c.BetterPairs == nil {
				t.Errorf("%s: %s states nothing", where, key)
			}
			if c.BetterPairs != nil && (*c.BetterPairs < 0 || *c.BetterPairs > r.Pairs) {
				t.Errorf("%s: %s better on %d of %d pairs", where, key, *c.BetterPairs, r.Pairs)
			}
		}
	}

	f, err := os.Open("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lines, lastPR := 0, 0
	for sc.Scan() {
		lines++
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var rec benchRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		where := fmt.Sprintf("PR %d", rec.PR)
		if rec.PR <= lastPR {
			t.Errorf("line %d: PR %d does not follow PR %d", lines, rec.PR, lastPR)
		}
		lastPR = rec.PR
		if rec.Commit == "" || rec.Box == "" {
			t.Errorf("%s: commit %q and box %q are required", where, rec.Commit, rec.Box)
		}
		if rec.Claim != nil && !validKey(*rec.Claim) {
			t.Errorf("%s: claim %q is not <workload>/<metric> of BENCHMARK.json", where, *rec.Claim)
		}
		checkRun(where, &rec.benchRun)
		if rec.Recheck != nil {
			checkRun(where+" re-check", rec.Recheck)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("BENCH_history.jsonl holds no records")
	}
}
