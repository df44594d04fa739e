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
// own, so both cases read the same: 56.8 objects and 6 640 B. Set-up still
// gave each facility and buffer pool a formatted name that only diagnostics
// read, five per NIC and two per link, and each link a facility of its own:
// 58.8 objects and 6 704 B. Owners now hold their resources by value (a NIC
// its three facilities and two pools, a link its facility, a cable its two
// links in one allocation) and names are derived when a panic or a
// diagnostic asks: 28.8 objects and 6 175 B. A histogram now makes its 65
// buckets on its first observation, so a block carries a 40-byte header per
// histogram instead of 560 bytes, and the five blocks shrink from 3 008 to
// 800 allocated bytes: 28.8 objects and 3 967 B. A NIC's connection tables
// and the multicast group table are now made by their first entry, and each
// histogram header is 48 bytes (its buckets a slice spanning the observed
// range): 24.8 objects and 3 823 B. The bounds leave under 10 % headroom
// over the 3 967 B.
func TestAllocBuildPerNode(t *testing.T) {
	for _, tc := range []struct {
		name             string
		opts             func() []cluster.Option
		objects, byteCap float64
	}{
		{"no registry", func() []cluster.Option { return nil }, 31, 4300},
		{"registry wired", func() []cluster.Option { return []cluster.Option{cluster.WithMetrics(metrics.New())} }, 31, 4300},
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

// openPortsPerPort reports the heap objects and bytes Cluster.OpenPorts
// costs per port when it opens the first port on every node of a 128-node
// cluster, the returned slice included.
func openPortsPerPort() (objects, bytes float64) {
	c := cluster.New(128)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ports := c.OpenPorts(1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ports)
	n := float64(len(ports))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// A port held its three wait queues behind pointers and made its assembly
// table when it opened: 6.0 objects and 457 B. With the waiters inside the
// port and the table made for the first multi-packet message, the port and
// its slot in the NIC's port table are what is left: 2.0 objects and 361 B.
// A benchmark set-up opens two ports on every node.
func TestAllocOpenPortsPerPort(t *testing.T) {
	objects, bytes := openPortsPerPort()
	t.Logf("%.1f objects, %.0f B per port", objects, bytes)
	if objects > 2.2 || bytes > 390 {
		t.Errorf("a port costs %.1f objects and %.0f B to open, over 2.2 and 390", objects, bytes)
	}
}

// The NICs of an engine share one pool of spare host buffers, so a buffer a
// receive loop has taken back serves the next message at any host: 64
// receivers of four 1 KB multicasts, each loop only receiving and providing,
// land the 256 messages in 14 buffers, as many as were being assembled or
// read at once. With a pool per port every receiver made its own, 64 in all,
// and each run made them anew.
func TestAllocReceiveBuffersPerEngine(t *testing.T) {
	const want = 14
	_, seen := receiveBuffers(t, 65, 4, 1<<10)
	distinct := map[*byte]bool{}
	for _, bufs := range seen {
		for _, b := range bufs {
			distinct[b] = true
		}
	}
	if got := len(distinct); got != want {
		t.Errorf("256 deliveries to 64 receivers landed in %d distinct buffers, want %d", got, want)
	}
}
