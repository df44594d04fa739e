package main

import (
	"bytes"
	"strings"
	"testing"
)

// A cluster too small for the workload, like any other bad flag, is a
// usage error: exit 2 with a message, before anything is built, and no
// verdict on stdout. (It used to surface as a FAIL row and exit 1, as if
// the protocol had broken.)
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-workload member -nodes 2 -transitions 4 -scenario churn-clean", "member cluster size"},
		{"-workload member -short -nodes 2", "member cluster size"},
		{"-workload multicast -nodes 1", "multicast cluster size"},
		{"-workload gossip", "unknown workload"},
		{"-workload coll -scenario churn-clean", "unknown coll scenario"},
		{"-workload member -transitions 0", "transition count"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 2 {
			t.Errorf("chaosbench %s: exit %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("chaosbench %s printed to stdout:\n%s", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("chaosbench %s: stderr %q does not mention %q", c.args, stderr.String(), c.want)
		}
	}
}

// Each -workload runs its campaign through the one runner and table.
func TestWorkloadFlag(t *testing.T) {
	for _, c := range []struct{ args, column string }{
		{"-scenario dup-storm -nodes 4", "nacks"},
		{"-workload coll -scenario coll-root-pause -nodes 4", "colldups"},
		{"-workload member -scenario churn-dup-storm -nodes 6 -transitions 4", "churn"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
			t.Fatalf("chaosbench %s: exit %d\n%s%s", c.args, code, stdout.String(), stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, c.column) || !strings.Contains(out, "PASS") ||
			!strings.Contains(out, "all 1 campaign points passed") {
			t.Errorf("chaosbench %s: unexpected report:\n%s", c.args, out)
		}
	}
}
