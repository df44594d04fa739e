//go:build !race

package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
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
