package chaos_test

import (
	"testing"

	"repro/internal/chaos"
)

// TestCollLibraryScenariosPass runs every collective scenario through the
// full invariant checker: correct allreduce/allgather results at every
// node every round, quiescence, no leaked collective records or timers,
// all NIC resources returned, balanced fabric accounting.
func TestCollLibraryScenariosPass(t *testing.T) {
	c := collective()
	if len(c.lib) < 5 {
		t.Fatalf("collective scenario library has %d scenarios, want at least 5", len(c.lib))
	}
	requireLibraryPasses(t, c, testConfig(), nil)
}

// TestCollRecoveryExercised pins that the headline scenarios actually
// drive the recovery machinery they claim to: burst loss must force
// go-back-N retransmissions, and the dup storm must be absorbed by
// the engine's duplicate rejection.
func TestCollRecoveryExercised(t *testing.T) {
	c := collective()
	res := chaos.Run(c.w, find(t, c.lib, "coll-barrier-burst-loss"), testConfig())
	if !res.Pass {
		t.Fatalf("coll-barrier-burst-loss failed: %v", res.Violations)
	}
	if res.Drops == 0 {
		t.Fatal("coll-barrier-burst-loss dropped nothing")
	}
	if res.Retransmits == 0 {
		t.Fatal("coll-barrier-burst-loss recovered without retransmits — fault never bit")
	}

	res = chaos.Run(c.w, find(t, c.lib, "coll-reduce-dup-storm"), testConfig())
	if !res.Pass {
		t.Fatalf("coll-reduce-dup-storm failed: %v", res.Violations)
	}
	if res.Dups == 0 {
		t.Fatal("coll-reduce-dup-storm duplicated nothing")
	}
	if res.Counter("colldups") == 0 {
		t.Fatal("dup storm produced no engine-side duplicate rejections")
	}
}
