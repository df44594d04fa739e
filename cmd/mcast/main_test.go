package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/golden"
)

// cliCases are the pinned invocations, each a section of
// testdata/golden/TestCLIGoldens.txt. A twin is the spelling the case must
// print identically: the same flags again for a same-seed rerun, or the
// serial -parallel 1 run. Slow cases (about a second each without the race
// detector) run only without -short.
var cliCases = []struct {
	args, twin string
	slow       bool
}{
	{args: "chaos -short -seed 1", twin: "chaos -short -seed 1"},
	{args: "chaos -workload member -short -seed 1", twin: "chaos -workload member -short -seed 1 -parallel 1"},
	{args: "explore -schedules 500 -nodes 8 -seed 1", twin: "explore -schedules 500 -nodes 8 -seed 1"},
	{args: "chaos -workload coll -short -seed 1", twin: "chaos -workload coll -short -seed 1"},
	{args: "coll -short", twin: "coll -short -parallel 1"},
	{args: "gm -fig 5 -iters 10 -warmup 2 -maxsize 4096 -ack-every 4", twin: "gm -fig 5 -iters 10 -warmup 2 -maxsize 4096 -ack-every 4 -parallel 1"},
	{args: "chaos -short -seed 1 -scenario burst-loss -ack-every 4"},
	{args: "chaos -workload member -short -seed 1 -ack-every 4"},
	{args: "chaos -workload coll -short -seed 1 -ack-every 4", twin: "chaos -workload coll -short -seed 1 -ack-every 4"},
	{args: "chaos -short -fabric clos -seed 1", twin: "chaos -short -fabric clos -seed 1"},
	{args: "chaos -workload member -short -fabric clos -seed 1", twin: "chaos -workload member -short -fabric clos -seed 1 -parallel 1"},
	{args: "chaos -list"},
	{args: "chaos -scenario dup-storm -nodes 4 -metrics"},
	{args: "explore -schedules 20 -nodes 6 -seed 3 -q -metrics"},
	{args: "explore -nodes 6 -msgs 4 -transitions 3 -replay s5!fpause@50000+900000000.n3"},
	{args: "gm -fig 3", slow: true},
	{args: "gm -fig 5", slow: true},
	{args: "gm -fig 5 -iters 3 -warmup 1 -maxsize 256 -plot -metrics"},
	{args: "gm -iters 2 -warmup 1 -maxsize 64 -fabric clos"},
	{args: "mpi", slow: true},
	{args: "mpi -iters 2 -warmup 1 -plot"},
	{args: "skew -fig 6", slow: true},
	{args: "skew -fig 7", slow: true},
	{args: "skew -fig 6 -iters 6 -nodes 8 -large -plot -metrics"},
	{args: "skew -iters 6 -nodes 8"},
	{args: "claims"},
	{args: "claims -metrics", slow: true},
	{args: "scale -iters 5 -nodes 8,16"},
	{args: "scale -iters 3 -nodes 16,32 -size 1024 -fabric clos -shards 2"},
	{args: "coll -skew 16 -skew-iters 4 -shards 0 -plot"},
	{args: "coll -collectives barrier,allreduce -nodes 16,32 -iters 2 -warmup 1 -veclen 2 -shards 2"},
	{args: "tree"},
	{args: "tree -nodes 8 -root 3"},
	{args: "tree -churn 8 -nodes 12"},
	{args: "trace"},
	{args: "trace -loss .02"},
	{args: "trace -lanes"},
	{args: "traffic"},
	{args: "traffic -nodes 8 -pattern hotspot -messages 200 -size 4096 -dist bimodal -gap 2 -loss .01"},
}

// mcast runs one invocation and returns its exit status, stdout and stderr.
func mcast(args string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields(args), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// capture runs a case that must succeed and returns its stdout as lines.
func capture(t *testing.T, args string) golden.Capture {
	t.Helper()
	code, stdout, stderr := mcast(args)
	if code != 0 || stderr != "" {
		t.Fatalf("mcast %s: exit %d\n%s", args, code, stderr)
	}
	return golden.Capture{Lines: strings.Split(stdout, "\n")}
}

// Every pinned invocation prints its golden byte for byte, and its twin
// prints the same: the tools are deterministic, serial or parallel.
func TestCLIGoldens(t *testing.T) {
	check := func(t *testing.T, args string, c golden.Capture) {
		golden.Check(t, "TestCLIGoldens", strings.ReplaceAll(args, " ", "_"), c)
	}
	for _, c := range cliCases {
		t.Run(c.args, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("slow case: runs without -short")
			}
			got := capture(t, c.args)
			check(t, c.args, got)
			if c.twin != "" {
				twin := capture(t, c.twin)
				golden.Equal(t, got, twin)
				if c.twin != c.args {
					check(t, c.twin, twin)
				}
			}
		})
	}
}

// usageCase is an invocation that must be a usage error, and the text its
// one stderr line must contain.
type usageCase struct{ args, want string }

// checkUsageErrors runs each case and checks it is a usage error: exit 2,
// a one-line message naming the problem, and nothing on stdout, before
// anything is built.
func checkUsageErrors(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, c := range cases {
		code, stdout, stderr := mcast(c.args)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("mcast %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, one line naming %q",
				c.args, code, stdout, stderr, c.want)
		}
	}
}

// A bad flag is a usage error.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	checkUsageErrors(t, []usageCase{
		{"", "usage: mcast"},
		{"gmsim", "usage: mcast"},
		{"trace -loss 2", "-loss 2 outside [0, 1]"},
		{"traffic -loss 1.5", "-loss 1.5 outside [0, 1]"},
		{"tree -nodes 16 -root 20", "-root 20"},
		{"trace -nodes 1", "-nodes 1"},
		{"tree -churn 4 -nodes 2", "churn needs at least 3 nodes"},
		{"chaos -fabric ring -short", "unknown fabric"},
		{"explore -replay x1", "bad -replay token"},
		{"gm -fig 4", "unknown figure 4"},
		{"gm -fabric ring", "unknown fabric"},
		{"skew -fig 5", "unknown figure 5"},
		{"scale -nodes 8,1", "bad node count"},
		{"scale -fabric ring", "unknown fabric"},
		{"coll -collectives barrier,bcast", "unknown collective"},
		{"coll -nodes 0", "bad system size"},
		{"coll -fabric ring", "unknown fabric"},
	})
	// A flag no subcommand declares is the flag package's error, with the
	// subcommand's flag list.
	if code, _, stderr := mcast("gm -barrier"); code != 2 || !strings.Contains(stderr, "-barrier") {
		t.Errorf("mcast gm -barrier: exit %d, stderr %q", code, stderr)
	}
}

// A cluster too small for the chaos workload, like any other bad flag, is
// a usage error, not a FAIL row and exit 1 as if the protocol had broken.
func TestChaosUsageErrors(t *testing.T) {
	checkUsageErrors(t, []usageCase{
		{"chaos -workload member -nodes 2 -transitions 4 -scenario churn-clean", "member cluster size"},
		{"chaos -workload member -short -nodes 2", "member cluster size"},
		{"chaos -workload multicast -nodes 1", "multicast cluster size"},
		{"chaos -workload gossip", "unknown workload"},
		{"chaos -workload coll -scenario churn-clean", "unknown coll scenario"},
		{"chaos -workload member -transitions 0", "transition count"},
	})
}

// A cluster too small for explore's churn workload is a usage error that
// states the minimum size, not one shrunk counterexample per schedule.
func TestExploreTooFewNodesIsAUsageError(t *testing.T) {
	checkUsageErrors(t, []usageCase{{"explore -schedules 5 -nodes 2", "-nodes >= 3"}})
}

// The replay line a counterexample prints runs: past its "go run" prefix
// it is the invocation that re-executes the schedule, printing that
// schedule's verdict and exiting with it.
func TestReproCommandReplays(t *testing.T) {
	cfg := explore.Config{Nodes: 6, Msgs: 4, Transitions: 3, Seed: 5}
	for _, tok := range []string{"s5!fpause@50000+900000000.n3", "s5!fpause@50000+1100000000.n3"} {
		sched, err := explore.Parse(tok)
		if err != nil {
			t.Fatal(err)
		}
		want := explore.Run(cfg, sched)
		wantCode := 0
		if !want.Pass {
			wantCode = 1
		}
		cmd := explore.ReproCommand(cfg, sched)
		rest, ok := strings.CutPrefix(cmd, "go run ./cmd/mcast explore ")
		if !ok {
			t.Fatalf("replay command %q does not run mcast explore", cmd)
		}
		code, stdout, _ := mcast("explore " + strings.ReplaceAll(rest, "'", ""))
		if line, _, _ := strings.Cut(stdout, "\n"); code != wantCode || line != "schedule "+want.Schedule.String() {
			t.Errorf("%s: exit %d, first line %q; want exit %d, schedule %s", cmd, code, line, wantCode, want.Schedule)
		}
	}
}

// scale -matrix prints wall seconds, so only its shape is pinned: a
// header, a column per shard count, and a "-" where shards exceed nodes.
func TestScaleMatrixShape(t *testing.T) {
	code, stdout, stderr := mcast("scale -matrix -nodes 2,4 -msgs 1")
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if code != 0 || stderr != "" || len(lines) != 5 {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	for i, want := range []struct {
		nodes  string
		dashes int
	}{{"2", 2}, {"4", 1}} {
		f := strings.Fields(lines[3+i])
		if f[0] != want.nodes || slices.Index(f, "-") != len(f)-want.dashes {
			t.Errorf("row %q: want %s nodes and %d empty cells", lines[3+i], want.nodes, want.dashes)
		}
	}
}

// -metrics-json prints each experiment's metrics as one JSON object.
func TestMetricsJSON(t *testing.T) {
	_, stdout, _ := mcast("chaos -short -scenario dup-storm -metrics-json")
	start := strings.Index(stdout, `{"experiment": "chaos campaign"`)
	end := strings.LastIndex(stdout, "\nall 2 campaign points passed")
	if start < 0 || end < start || !json.Valid([]byte(stdout[start:end])) {
		t.Fatalf("no valid JSON report in:\n%s", stdout)
	}
}

// The profile flags precede the subcommand and write both profiles.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if code, _, stderr := mcast("-cpuprofile " + cpu + " -memprofile " + mem + " tree -nodes 4"); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", f, err)
		}
	}
	if code, _, _ := mcast("-memprofile " + filepath.Join(dir, "none", "mem.prof") + " tree -nodes 4"); code != 1 {
		t.Errorf("unwritable -memprofile: exit %d, want 1", code)
	}
}
