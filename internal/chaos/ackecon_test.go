package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
)

// economyConfig is testConfig with the full ack economy switched on:
// cumulative acks every 4 packets, piggybacking, and NIC tree ack
// aggregation. The invariant checker additionally verifies that no
// delayed-ack or aggregate-ack timer outlives the run.
func economyConfig() chaos.Config {
	cfg := testConfig()
	cfg.AckEvery = 4
	return cfg
}

// TestLibraryScenariosPassWithAckEconomy re-runs every chaos scenario —
// loss bursts, interior kills, dup storms, pauses — with coalesced,
// piggybacked, and tree-aggregated acks. Exactly-once in-order delivery,
// resource return, and timer hygiene must all survive the economy: a
// coalesced cumulative ack that is lost or delayed must never wedge the
// go-back-N recovery machinery. The churn scenarios follow the multicast
// ones: epochs must roll with the economy on too.
func TestLibraryScenariosPassWithAckEconomy(t *testing.T) {
	requireLibraryPasses(t, multicast(), economyConfig(), nil)
	requireLibraryPasses(t, churn(), economyConfig(), nil)
}

// TestCollLibraryScenariosPassWithAckEconomy does the same for the
// collective workload (under the name its subtests have always had): the
// per-peer go-back-N streams under barrier/allreduce/allgather traffic use
// the same send window and cumulative acks, so every collective scenario must
// still produce correct results at every node and leak no timers or
// records.
func TestCollLibraryScenariosPassWithAckEconomy(t *testing.T) {
	requireLibraryPasses(t, collective(), economyConfig(), nil)
}

// TestAckEconomyScenarioDeterminism pins that the economy's delayed-ack
// timers and fused ack processing do not perturb the deterministic
// schedule: the same seeded scenario must produce bit-identical results.
func TestAckEconomyScenarioDeterminism(t *testing.T) {
	c := multicast()
	sc := find(t, c.lib, "burst-loss")
	a := chaos.Run(c.w, sc, economyConfig())
	b := chaos.Run(c.w, sc, economyConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results with ack economy:\n%+v\nvs\n%+v", a, b)
	}
	if !a.Pass {
		t.Fatalf("burst-loss failed with ack economy: %v", a.Violations)
	}
}
