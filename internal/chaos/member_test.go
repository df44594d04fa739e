package chaos_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
)

// Every membership scenario must satisfy the membership invariant (each
// payload delivered exactly once, in order, to exactly its epoch's
// members) plus the full quiescence/resource/accounting invariant set —
// including churn-under-loss, the Gilbert–Elliott run, with the campaign
// floor of at least 8 transitions.
func TestMemberLibraryScenariosPass(t *testing.T) {
	c := churn()
	if len(c.lib) < 4 {
		t.Fatalf("membership scenario library has %d scenarios, want at least 4", len(c.lib))
	}
	if churn := c.w.Params()[0].Value; churn < 8 {
		t.Fatalf("campaign config schedules %d transitions, the floor is 8", churn)
	}
	requireLibraryPasses(t, c, testConfig(), func(t *testing.T, res chaos.Result) {
		// Finalize always commits, so a full run records more epochs
		// than the initial one alone.
		if n := res.Counter("epochs"); n < 2 {
			t.Fatalf("scenario %s committed only %d epochs — churn never ran", res.Scenario, n)
		}
	})
}

// Regression: PauseNIC events armed before member.RunOn must fire DURING
// the run, not during the install barrier. RunOn's phase-1 quiescence
// used to drain the whole event heap, so the coordinator-outage pause
// (300µs–1ms) fired before any membership process existed and the
// scenario quietly ran fault-free — unnoticed because PauseNIC is not a
// hit-counted rule. The schedule explorer surfaced it (a pause that
// outlasted the deadline still "passed"). A faulted run that truly hits
// a 1ms outage cannot finish before the NIC resumes.
func TestCoordinatorOutageOverlapsRun(t *testing.T) {
	c := churn()
	res := chaos.Run(c.w, find(t, c.lib, "churn-coordinator-outage"), testConfig())
	if !res.Pass {
		t.Fatalf("scenario failed: %v", res.Violations)
	}
	const pauseEnd = sim.Millisecond
	if res.Finish < pauseEnd {
		t.Fatalf("faulted run finished at %v, before the outage lifted at %v — the pause never overlapped the run",
			res.Finish, pauseEnd)
	}
	if res.Finish <= res.CleanFinish {
		t.Fatalf("faulted finish %v not after clean finish %v — the outage cost nothing",
			res.Finish, res.CleanFinish)
	}
}

// The epoch filters must be reached end-to-end, not just in the core
// unit tests: under bursty loss, a retransmitted or delayed frame can
// arrive at a node that has not yet committed the sender's epoch and be
// dropped by the future-epoch rule until the commit lands. Whether a
// given run opens that window depends on where the burst channel bites,
// so this sweeps a few seeds and requires the rejection path to fire at
// least once across them (the stale-epoch and acked-as-dropped rules
// are pinned directly by internal/core's epoch tests).
func TestMemberEpochFiltersEngage(t *testing.T) {
	c := churn()
	sc := find(t, c.lib, "churn-under-loss")
	var filtered uint64
	for seed := int64(1); seed <= 4 && filtered == 0; seed++ {
		cfg := testConfig()
		cfg.Seed = seed
		res := chaos.Run(c.w, sc, cfg)
		if !res.Pass {
			t.Fatalf("seed %d: churn-under-loss failed: %v", seed, res.Violations)
		}
		filtered += res.Counter("stale") + res.Counter("future") + res.Counter("ackdrop")
	}
	if filtered == 0 {
		t.Error("no seed ever exercised the epoch rejection path under churn+loss")
	}
}
