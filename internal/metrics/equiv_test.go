package metrics_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The goldens under testdata/golden hold full snapshots, one instrument a
// line, first captured on commit 93acc71 when every instrument was its own
// heap object filed by name, to show that moving to blocks changed no key,
// no value and not the order of a Snapshot. A change that means to add an
// instrument or move a protocol count re-captures them with GOLDEN_UPDATE=1
// and reads the report; one that does not mean to must leave them alone.

// snapshotLines renders reg's snapshot one instrument a line, in snapshot
// order, every key and value kept, without the one wall-clock instrument
// (sim.barrier_wait_ns, a histogram of real barrier waits on a sharded run).
func snapshotLines(reg *metrics.Registry) []string {
	s := reg.Snapshot()
	var out []string
	for _, c := range s.Counters {
		out = append(out, fmt.Sprintf("counter %v %d", c.Key, c.Value))
	}
	for _, g := range s.Gauges {
		out = append(out, fmt.Sprintf("gauge %v %d high=%d", g.Key, g.Value, g.High))
	}
	for _, h := range s.Histograms {
		if h.Component == "sim" {
			continue
		}
		line := fmt.Sprintf("hist %v count=%d sum=%d min=%d max=%d", h.Key, h.Count, h.Sum, h.Min, h.Max)
		var b []string
		for _, i := range slices.Sorted(maps.Keys(h.Buckets)) {
			b = append(b, fmt.Sprintf("%d:%d", i, h.Buckets[i]))
		}
		if len(b) > 0 {
			line += " buckets=" + strings.Join(b, ",")
		}
		out = append(out, line)
	}
	return out
}

// multicastRun streams five 2000-byte multicasts down a binomial tree of 8
// nodes, the capture workload of the cluster timeline goldens.
func multicastRun(t *testing.T, reg *metrics.Registry, opts ...cluster.Option) {
	t.Helper()
	const nodes, msgs = 8, 5
	c := cluster.New(nodes, append([]cluster.Option{cluster.WithMetrics(reg), cluster.WithSeed(7)}, opts...)...)
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	c.Run()
	if !ready() {
		t.Fatal("group installation did not settle")
	}
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			c.Nodes[0].Ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	for i := 1; i < nodes; i++ {
		port := ports[i]
		c.SpawnOn(fabric.NodeID(i), "recv", func(p *sim.Proc) {
			port.ProvideN(msgs+3, 1<<12)
			for got := 0; got < msgs; got++ {
				port.Release(port.Recv(p))
			}
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("%d processes never finished", live)
	}
	c.Kill()
}

func TestSnapshotEquivalenceLossyMulticast(t *testing.T) {
	reg := metrics.New()
	multicastRun(t, reg, cluster.WithLossRate(0.02))
	golden.Check(t, "TestSnapshotEquivalenceLossyMulticast", "mcast8_loss2pct", golden.Capture{Lines: snapshotLines(reg)})
}

// A sharded engine refuses stochastic loss, so the two-shard capture is the
// same stream on a clean fabric; several shards write the fabric's blocks.
func TestSnapshotEquivalenceTwoShards(t *testing.T) {
	reg := metrics.New()
	multicastRun(t, reg, cluster.WithShards(2))
	golden.Check(t, "TestSnapshotEquivalenceTwoShards", "mcast8_shards2", golden.Capture{Lines: snapshotLines(reg)})
}

// Every cluster of both points files under the same keys of one registry:
// the snapshot is the sum over all of them.
func TestSnapshotEquivalenceSharedAcrossClusters(t *testing.T) {
	o := harness.DefaultOptions()
	o.Warmup, o.Iters = 2, 5
	o.Metrics = metrics.New()
	o.MulticastNB(8, 1024)
	o.MulticastHB(4, 4096)
	golden.Check(t, "TestSnapshotEquivalenceSharedAcrossClusters", "harness_two_points", golden.Capture{Lines: snapshotLines(o.Metrics)})
}

func TestSnapshotEquivalenceCollectives(t *testing.T) {
	const nodes, rounds, gid, port = 8, 3, 9, 1
	reg := metrics.New()
	c := cluster.New(nodes, cluster.WithMetrics(reg), cluster.WithSeed(3), cluster.WithLossRate(0.01))
	ports := c.OpenPorts(port)
	c.InstallGroup(gid, tree.Binomial(0, c.Members()), port, port)
	ready := c.InstallCollGroup(gid, c.Members(), port)
	c.Run()
	if !ready() {
		t.Fatal("collective group installation did not settle")
	}
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(fabric.NodeID(i), "coll", func(p *sim.Proc) {
			nd := c.Nodes[i]
			for r := 0; r < rounds; r++ {
				nd.Coll.Barrier(p, ports[i], gid)
				if i != 0 {
					ports[i].Provide(8 * 4)
				}
				sum := nd.Coll.Allreduce(p, ports[i], gid, []int64{int64(i), int64(r), 1, -1}, coll.OpSum)
				if sum[2] != nodes {
					t.Errorf("node %d round %d: allreduce = %v", i, r, sum)
				}
			}
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("%d processes never finished", live)
	}
	c.Kill()
	golden.Check(t, "TestSnapshotEquivalenceCollectives", "coll8_barrier_allreduce", golden.Capture{Lines: snapshotLines(reg)})
}
