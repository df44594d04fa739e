package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// A cluster too small for the churn workload is a usage error: exit 2 with
// a message and no campaign, where it used to print one shrunk
// counterexample per schedule. main exits the process, so the test runs
// it in a child: this same binary, told by the environment to be explore.
func TestTooFewNodesIsAUsageError(t *testing.T) {
	if args, ok := os.LookupEnv("EXPLORE_ARGS"); ok {
		os.Args = append([]string{"explore"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTooFewNodesIsAUsageError$")
	cmd.Env = append(os.Environ(), "EXPLORE_ARGS=-schedules 5 -nodes 2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("explore -nodes 2: %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("explore -nodes 2 printed a report:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "-nodes >= 3") {
		t.Errorf("stderr %q does not state the minimum cluster size", stderr.String())
	}
}
