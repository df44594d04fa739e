package cluster

import (
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/tree"
)

// installCost builds an n-host cluster, runs install (which posts one
// group's entries and returns its ready function) to quiescence, and
// reports the heap objects and bytes that took per member. Counts, not
// time: they repeat run to run, and a per-member cost that grows with the
// group grows them.
func installCost(t *testing.T, n int, install func(c *Cluster) (ready func() bool)) (objs, bytes float64) {
	t.Helper()
	c := New(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ready := install(c)
	c.Run()
	runtime.ReadMemStats(&after)
	if !ready() {
		t.Fatalf("%d hosts: group not installed after quiescence", n)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// checkFlat fails when the per-member cost at 2048 hosts is not within
// 10% of the cost at 512: quadratic set-up would make it 4x.
func checkFlat(t *testing.T, what string, install func(c *Cluster) func() bool) {
	t.Helper()
	o512, b512 := installCost(t, 512, install)
	o2048, b2048 := installCost(t, 2048, install)
	t.Logf("%s per member: %.1f objects / %.0f B at 512 hosts, %.1f / %.0f at 2048", what, o512, b512, o2048, b2048)
	for _, r := range []struct {
		unit       string
		small, big float64
	}{{"objects", o512, o2048}, {"bytes", b512, b2048}} {
		if r.big > 1.1*r.small || r.big < 0.9*r.small {
			t.Errorf("%s: %s allocated per member went from %.1f at 512 hosts to %.1f at 2048; group set-up must cost the same per member at any size",
				what, r.unit, r.small, r.big)
		}
	}
}

func TestInstallGroupCostPerMemberIsFlat(t *testing.T) {
	checkFlat(t, "InstallGroup", func(c *Cluster) func() bool {
		return c.InstallGroup(1, tree.Binomial(0, c.Members()), 1, 1)
	})
}

func TestInstallCollGroupCostPerMemberIsFlat(t *testing.T) {
	checkFlat(t, "InstallCollGroup(BarrierTree)", func(c *Cluster) func() bool {
		return c.InstallCollGroup(2, c.Members(), 1, coll.WithBarrierAlgo(coll.BarrierTree))
	})
}
