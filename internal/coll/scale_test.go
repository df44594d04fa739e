package coll_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Scale tests: the collective engine's tree allgather has no eager-size
// ceiling — the root concatenates 8·N bytes in MTU chunks and multicasts
// the flat result — so unlike the MPI layer's NIC path it must work at
// the paper-scale 512–2048-host systems on both fabrics, and the sharded
// engine must reproduce the serial timeline there too.

// runGatherAtScale runs one engine-level allgather round at the given
// size and returns the merged timeline and the finish time. Every node's
// result vector is checked in place.
func runGatherAtScale(t *testing.T, fb fabric.Config, nodes, shards int) ([]tlRec, sim.Time) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	cfg.Seed = 1
	cfg.Shards = shards
	cfg.Fabric = fb
	cfg.Link = fb.Links
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	tl := recordTimelines(c)
	ports := c.OpenPorts(7)
	c.InstallGroup(collGID, tree.Binomial(0, c.Members()), 7, 7)
	ready := c.InstallCollGroup(collGID, c.Members(), 7)
	c.Run()
	if !ready() {
		t.Fatal("collective group installation did not settle")
	}
	want := make([]int64, nodes)
	for i := range want {
		want[i] = int64(100 * i)
	}
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(c.Nodes[i].ID, "gather", func(p *sim.Proc) {
			got := c.Nodes[i].Coll.Allgather(p, ports[i], collGID, []int64{int64(100 * i)})
			if len(got) != nodes {
				t.Errorf("node %d: allgather returned %d entries, want %d", i, len(got), nodes)
				return
			}
			for j, v := range got {
				if v != want[j] {
					t.Errorf("node %d: entry %d = %d, want %d", i, j, v, want[j])
					return
				}
			}
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("allgather stalled with %d live procs", live)
	}
	for _, n := range c.Nodes {
		if s := n.Coll.DebugLeaks(); s != "" {
			t.Fatalf("node %v leaked collective state: %s", n.ID, s)
		}
	}
	return tl(), c.Now()
}

// TestAllgatherAtScale drives the engine's tree allgather at 512 hosts on
// both fabrics, requiring the 4-shard run's timeline to be byte-identical
// to the serial run's.
func TestAllgatherAtScale(t *testing.T) {
	const nodes = 512
	for _, fb := range fabrics {
		fb := fb
		t.Run(fb.name, func(t *testing.T) {
			serialTL, serialNow := runGatherAtScale(t, fb.cfg, nodes, 1)
			if len(serialTL) == 0 {
				t.Fatal("serial run fired no events")
			}
			shardTL, shardNow := runGatherAtScale(t, fb.cfg, nodes, 4)
			diffTimelines(t, "4-shard", serialTL, shardTL)
			if shardNow != serialNow {
				t.Fatalf("4-shard run finished at %v, serial at %v", shardNow, serialNow)
			}
		})
	}
}

// TestAllgatherAt2048 is the largest point: 2048 hosts — past the MPI
// layer's eager ceiling, where only the engine's chunked path can run —
// sharded, on both fabrics. Skipped under -short.
func TestAllgatherAt2048(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-host allgather skipped in short mode")
	}
	for _, fb := range fabrics {
		fb := fb
		t.Run(fb.name, func(t *testing.T) {
			if _, now := runGatherAtScale(t, fb.cfg, 2048, 4); now == 0 {
				t.Fatal("run finished at time zero")
			}
		})
	}
}
