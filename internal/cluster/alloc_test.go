//go:build !race

package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/myrinet"
	"repro/internal/tree"
)

// Counts, not time (the race detector allocates on its own, so this is left
// out of -race builds).

// buildPerNode reports the heap objects and bytes one more node costs a
// cluster build: New(128) minus New(64), over 64, so the engine, the fabric
// shell and the switches' first slices cancel out. Both sizes are a two-level
// Clos of 16-port crossbars.
func buildPerNode(opts func() []cluster.Option) (objects, bytes float64) {
	cost := func(n int) (uint64, uint64) {
		o := opts()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := cluster.New(n, o...)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	o64, b64 := cost(64)
	o128, b128 := cost(128)
	return float64(o128-o64) / 64, float64(b128-b64) / 64
}

// When every instrument was a heap object of its own, filed by name in a
// list per (component, node) that regrew as it filled — in a private registry
// per NIC when none was wired — a node cost 217.7 objects and 14 530 B with no
// registry and 214.6 objects and 14 640 B with one (commit 93acc71, this
// test). One block per (layer, node) leaves the instrument state itself
// (2.8 KB in five blocks), a 48-byte registry entry per block and an index
// slot per node; a cluster that is given no registry files them in one of its
// own, so both cases read the same: 56.8 objects and 6 640 B. The bounds are
// at least 100 objects and 7 000 B below the parent's readings.
func TestAllocBuildPerNode(t *testing.T) {
	for _, tc := range []struct {
		name             string
		opts             func() []cluster.Option
		objects, byteCap float64
	}{
		{"no registry", func() []cluster.Option { return nil }, 70, 7000},
		{"registry wired", func() []cluster.Option { return []cluster.Option{cluster.WithMetrics(metrics.New())} }, 70, 7000},
	} {
		objects, bytes := buildPerNode(tc.opts)
		t.Logf("%s: %.1f objects, %.0f B per node", tc.name, objects, bytes)
		if objects > tc.objects || bytes > tc.byteCap {
			t.Errorf("%s: a node costs %.1f objects and %.0f B to build, over %.0f and %.0f",
				tc.name, objects, bytes, tc.objects, tc.byteCap)
		}
	}
}

// setupCost reports the heap objects and bytes a 4-shard cluster of n hosts
// allocates from cluster.New through a whole-cluster InstallGroup run to
// completion.
func setupCost(t *testing.T, fc fabric.Config, n int) (objects, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := cluster.New(n, cluster.WithShards(4), cluster.WithFabric(fc))
	ready := c.InstallGroup(1, tree.Binomial(0, c.Members()), 1, 1)
	c.Run()
	runtime.ReadMemStats(&after)
	if !ready() {
		t.Fatalf("%s %d hosts: group not installed after quiescence", fc.Kind, n)
	}
	c.Kill()
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// Set-up at the 16384-host frontier is linear in the host count: twice the
// hosts cost at most 2.10x the objects and bytes (measured 1.993-1.994 and
// 2.011-2.012 on the two fabrics). A per-member O(n) install term shows as
// about 4 — validating the shared tree once per member instead of once reads
// 3.79 in bytes, though only 1.99 in objects. Counts, not seconds, so they
// repeat on any machine.
func TestAllocSetupLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("16384-host builds are slow")
	}
	for _, fc := range []fabric.Config{myrinet.Default(), clos.Default()} {
		o8k, b8k := setupCost(t, fc, 8192)
		o16k, b16k := setupCost(t, fc, 16384)
		t.Logf("%s: %d objects / %d B at 8192 hosts, %d / %d at 16384", fc.Kind, o8k, b8k, o16k, b16k)
		for _, r := range []struct {
			unit       string
			small, big uint64
		}{{"objects", o8k, o16k}, {"bytes", b8k, b16k}} {
			if ratio := float64(r.big) / float64(r.small); ratio > 2.10 {
				t.Errorf("%s: set-up %s grew %.3fx from 8192 to 16384 hosts, over 2.10x", fc.Kind, r.unit, ratio)
			}
		}
	}
}
