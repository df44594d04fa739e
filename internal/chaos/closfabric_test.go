package chaos_test

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/clos"
)

func closConfig() chaos.Config {
	cfg := testConfig()
	cfg.Fabric = clos.Default()
	return cfg
}

// TestLibraryScenariosPassOnClos runs the entire fault-scenario library on
// the Clos backend through the full invariant checker — the cross-fabric
// reliability bar: exactly-once in-order delivery, all buffers and tokens
// returned, no leaked timers, balanced packet accounting, now over ECMP
// paths and PFC backpressure instead of the Myrinet crossbar.
func TestLibraryScenariosPassOnClos(t *testing.T) {
	requireLibraryPasses(t, multicast(), closConfig(), nil)
}

// TestLibraryScenariosPassOnMultiLeafClos repeats the sweep at a size that
// forces a multi-switch leaf-spine, so recovery paths cross ECMP-selected
// trunks rather than one shared crossbar.
func TestLibraryScenariosPassOnMultiLeafClos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-leaf campaign is slow")
	}
	cfg := closConfig()
	cfg.Nodes = 40
	c := multicast()
	c.w = chaos.Multicast{Msgs: 6, Size: 10000}
	requireLibraryPasses(t, c, cfg, nil)
}

// TestMemberLibraryPassesOnClos runs every membership-churn scenario on
// the Clos backend: epochs roll the group under faults while payloads
// stream, and the membership invariant — epoch-E payloads reach exactly
// E's members, exactly once, in order — must hold on the new fabric.
func TestMemberLibraryPassesOnClos(t *testing.T) {
	c := churn()
	c.w = chaos.Churn{Msgs: 12, Size: 4096, Transitions: 6}
	requireLibraryPasses(t, c, closConfig(), nil)
}

// TestScenariosActuallyInjectOnClos guards the cross-fabric campaign
// against vacuous passes: every scenario's fault rules must engage on the
// Clos backend too — in particular switch-outage, which targets the
// root's switch by label and would silently miss if it still assumed the
// Myrinet crossbar's name.
func TestScenariosActuallyInjectOnClos(t *testing.T) {
	c := multicast()
	for _, sc := range c.lib {
		res := chaos.Run(c.w, sc, closConfig())
		var ruleHits uint64
		for _, r := range res.Rules {
			ruleHits += r.Hits
		}
		if ruleHits+res.PausedDrops == 0 {
			t.Errorf("scenario %s: no fault rule ever fired on clos", sc.Name)
		}
	}
}

// TestClosCampaignDeterminism pins the reproducibility contract on the new
// backend: the most stochastic scenario, run twice at the same seed on
// Clos, must produce identical results down to every counter.
func TestClosCampaignDeterminism(t *testing.T) {
	c := multicast()
	sc := find(t, c.lib, "burst-loss")
	a := chaos.Run(c.w, sc, closConfig())
	b := chaos.Run(c.w, sc, closConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed on clos, different results:\n%+v\nvs\n%+v", a, b)
	}
	myr := chaos.Run(c.w, sc, testConfig())
	if a.Finish == myr.Finish && a.Drops == myr.Drops {
		t.Fatalf("clos and myrinet campaigns identical (finish %v, %d drops) — Fabric config ignored",
			a.Finish, a.Drops)
	}
}
