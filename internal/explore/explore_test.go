package explore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Two runs of the same (Config, Schedule) pair are identical field for
// field — the bedrock the replay command and the CI determinism diff
// stand on.
func TestRunDeterministicPerSchedule(t *testing.T) {
	cfg := Config{Nodes: 6, Msgs: 4, Transitions: 3, Seed: 9}
	scheds := []Schedule{
		{Seed: 9},
		{Seed: 9, Ticks: []Tick{{Pos: 5, Val: 1}, {Pos: 40, Val: 2}}},
		{Seed: 9, Faults: []FaultPoint{{Kind: FaultDropData, At: 50000, Dur: 80000, Node: 2}}},
	}
	for _, s := range scheds {
		a, b := Run(cfg, s), Run(cfg, s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("schedule %s: two runs diverged:\n%+v\n%+v", s, a, b)
		}
	}
}

// The default (zero-decision) schedule passes every invariant: permuting
// nothing must reproduce the plain membership run the rest of the suite
// already validates.
func TestDefaultSchedulePasses(t *testing.T) {
	out := Run(Config{Seed: 3}, Schedule{})
	if !out.Pass {
		t.Fatalf("default schedule failed: %v", out.Violations)
	}
	if out.ChoicePoints == 0 || out.MaxBranch < 2 {
		t.Fatalf("default run exposed no decision space (points=%d branch=%d) — nothing to explore",
			out.ChoicePoints, out.MaxBranch)
	}
}

// renderReport flattens a Report to the byte-comparable form the
// determinism property diffs.
func renderReport(rep Report) string {
	s := fmt.Sprintf("distinct=%d enum=%d sampled=%d cp=%d mb=%d\n",
		rep.Distinct, rep.Enumerated, rep.Sampled, rep.ChoicePoints, rep.MaxBranch)
	for _, f := range rep.Failures {
		s += fmt.Sprintf("fail %s min %s runs %d viol %v\n", f.Schedule, f.Minimal, f.ShrinkRuns, f.Violations)
	}
	return s
}

// Explorer determinism property: the same exploration seed enumerates
// byte-identical schedule sets and verdicts across two campaigns.
// TestCLIGoldens in cmd/mcast re-checks this through `mcast explore` under
// -race.
func TestExploreDeterminism(t *testing.T) {
	cfg := Config{Nodes: 6, Msgs: 4, Transitions: 3, Seed: 5}
	a := renderReport(Explore(cfg, 60, nil))
	b := renderReport(Explore(cfg, 60, nil))
	if a != b {
		t.Fatalf("two identically-seeded campaigns diverged:\n--- first\n%s--- second\n%s", a, b)
	}
}

// A known-bad injected mutation (test-only: fail once >= 3 non-default
// tie-breaks are taken) is caught by the campaign and shrinks to a
// counterexample of at most 5 decisions — the end-to-end proof that the
// explorer can both find and minimize a schedule-dependent bug.
func TestInjectedMutationCaughtAndShrunk(t *testing.T) {
	cfg := Config{Nodes: 6, Msgs: 4, Transitions: 3, Seed: 5, failNonDefault: 3}
	rep := Explore(cfg, 60, nil)
	if len(rep.Failures) == 0 {
		t.Fatal("campaign never tripped the injected mutation")
	}
	ce := rep.Failures[0]
	if d := ce.Minimal.Decisions(); d > 5 {
		t.Fatalf("minimal counterexample has %d decisions, want <= 5: %s", d, ce.Minimal)
	}
	if d := ce.Minimal.Decisions(); d < 3 {
		t.Fatalf("minimal counterexample has %d decisions — cannot reach the 3-decision threshold: %s", d, ce.Minimal)
	}
	// The minimal schedule still fails, and replays identically through
	// its printed token.
	direct := Run(cfg, ce.Minimal)
	if direct.Pass {
		t.Fatalf("minimal counterexample %s passes when replayed", ce.Minimal)
	}
	parsed, err := Parse(ce.Minimal.String())
	if err != nil {
		t.Fatalf("minimal counterexample token does not parse: %v", err)
	}
	replayed := Run(cfg, parsed)
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("replay through the token diverged:\n%+v\n%+v", direct, replayed)
	}
}

// Regression: a timed fault armed before member.RunOn must overlap the
// run. member.RunOn's install barrier used to drain the WHOLE event heap
// (c.Run()), firing injector-armed pause/resume events during setup and
// advancing the clock past every fault window before any membership
// process existed — so NIC pauses (and, once the clock had jumped, every
// predicate fault window too) never touched the traffic. The explorer
// surfaced it: a pause outlasting the deadline still "passed", with a
// finish time past the deadline. Pinned schedules, from the campaign
// that caught it:
func TestPauseFaultOverlapsRun(t *testing.T) {
	cfg := Config{Nodes: 6, Msgs: 4, Transitions: 3, Seed: 5}

	// A mid-run pause that ends inside the deadline: the run must stall
	// on it (finish after the pause lifts) and then recover cleanly.
	const pauseEnd = 900050000 // At + Dur from the pinned token
	sched, err := Parse("s5!fpause@50000+900000000.n3")
	if err != nil {
		t.Fatal(err)
	}
	out := Run(cfg, sched)
	if !out.Pass {
		t.Fatalf("recoverable pause schedule failed: %v", out.Violations)
	}
	if out.Finish < pauseEnd {
		t.Fatalf("finish %v precedes pause end %v — the fault never overlapped the run",
			out.Finish, sim.Time(pauseEnd))
	}

	// The same pause stretched past the deadline must be detected as an
	// unrecovered run, not silently waited out.
	sched, err = Parse("s5!fpause@50000+1100000000.n3")
	if err != nil {
		t.Fatal(err)
	}
	if out := Run(cfg, sched); out.Pass {
		t.Fatalf("pause outlasting the deadline passed (finish %v)", out.Finish)
	}
}

// Shrinking a passing outcome is a no-op, and shrinking stays within its
// run budget.
func TestShrinkBounds(t *testing.T) {
	cfg := Config{Nodes: 6, Msgs: 4, Transitions: 3, Seed: 5, MaxShrinkRuns: 25, failNonDefault: 3}
	pass := Run(cfg, Schedule{})
	if !pass.Pass {
		t.Fatalf("default schedule unexpectedly failed: %v", pass.Violations)
	}
	if out, runs := Shrink(cfg, pass, nil); runs != 0 || !reflect.DeepEqual(out, pass) {
		t.Fatalf("shrinking a passing outcome ran %d times", runs)
	}
	// Build a deliberately fat failing schedule and confirm the budget cap.
	fat := Schedule{Seed: 5}
	for i := uint32(0); i < 12; i++ {
		fat.Ticks = append(fat.Ticks, Tick{Pos: i * 3, Val: 1})
	}
	out := Run(cfg, fat)
	if out.Pass {
		t.Skip("fat schedule did not trip the mutation under this seed")
	}
	min, runs := Shrink(cfg, out, nil)
	if runs > cfg.MaxShrinkRuns {
		t.Fatalf("shrink spent %d runs, budget %d", runs, cfg.MaxShrinkRuns)
	}
	if min.Pass {
		t.Fatal("shrink returned a passing schedule")
	}
	if min.Schedule.Decisions() > fat.Decisions() {
		t.Fatal("shrink grew the schedule")
	}
}
