package coll_test

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

const collGID gm.GroupID = 77

// rig builds a cluster with both group tables installed — the multicast
// tree (reduce/allreduce/tree-allgather neighborhoods and downward
// multicasts) and the collective entry — on one dedicated port.
func rig(t *testing.T, nodes int, mut func(*cluster.Config), opts ...coll.Option) (*cluster.Cluster, []*gm.Port) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	if mut != nil {
		mut(cfg)
	}
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(7)
	c.InstallGroup(collGID, tree.Binomial(0, c.Members()), 7, 7)
	ready := c.InstallCollGroup(collGID, c.Members(), 7, opts...)
	c.Run()
	if !ready() {
		t.Fatal("collective group installation did not settle")
	}
	return c, ports
}

// counter reads one counter out of a snapshot. A key no instrument reports
// fails the test, so a misspelled name cannot pass as a zero count.
func counter(t testing.TB, s metrics.Snapshot, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}

// checkClean asserts every NIC's collective state drained: no unacked
// records, no armed timers, no open instances.
func checkClean(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("collective stalled with %d live procs", live)
	}
	for _, n := range c.Nodes {
		if s := n.Coll.DebugLeaks(); s != "" {
			t.Errorf("node %v leaked collective state: %s", n.ID, s)
		}
		if out := n.Coll.Outstanding(); out != 0 {
			t.Errorf("node %v has %d unacked records", n.ID, out)
		}
		if p := n.Coll.PendingTimers(); p != 0 {
			t.Errorf("node %v has %d armed retransmit timers", n.ID, p)
		}
	}
}

// TestBarrierAlgos runs repeated skewed barriers under both algorithms and
// asserts barrier semantics: nobody completes an instance before the last
// member has entered it.
func TestBarrierAlgos(t *testing.T) {
	for name, algo := range map[string]coll.BarrierAlgo{
		"dissemination": coll.BarrierDissemination,
		"tree":          coll.BarrierTree,
	} {
		t.Run(name, func(t *testing.T) {
			const nodes, rounds = 9, 4
			c, ports := rig(t, nodes, nil, coll.WithBarrierAlgo(algo))
			entered := make([][]sim.Time, nodes)
			done := make([][]sim.Time, nodes)
			for i := 0; i < nodes; i++ {
				i := i
				c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
					for r := 0; r < rounds; r++ {
						p.Compute(sim.Micros(float64(((i + r) % nodes) * 37))) // rotating skew
						entered[i] = append(entered[i], p.Engine().Now())
						c.Nodes[i].Coll.Barrier(p, ports[i], collGID)
						done[i] = append(done[i], p.Engine().Now())
					}
				})
			}
			c.Run()
			checkClean(t, c)
			for r := 0; r < rounds; r++ {
				var last sim.Time
				for i := 0; i < nodes; i++ {
					if len(entered[i]) != rounds {
						t.Fatalf("node %d completed %d/%d barriers", i, len(entered[i]), rounds)
					}
					if entered[i][r] > last {
						last = entered[i][r]
					}
				}
				for i := 0; i < nodes; i++ {
					if done[i][r] < last {
						t.Errorf("round %d: node %d left at %v before last entry %v", r, i, done[i][r], last)
					}
				}
			}
			var sent uint64
			snap := c.Nodes[0].HW.Registry().Snapshot()
			for _, n := range c.Nodes {
				sent += counter(t, snap, coll.Component, int(n.ID), "barrier_sent")
			}
			if sent == 0 {
				t.Error("no barrier traffic recorded")
			}
		})
	}
}

// TestBarrierUnderLoss exercises the go-back-N recovery of both
// algorithms on a lossy fabric.
func TestBarrierUnderLoss(t *testing.T) {
	for name, algo := range map[string]coll.BarrierAlgo{
		"dissemination": coll.BarrierDissemination,
		"tree":          coll.BarrierTree,
	} {
		t.Run(name, func(t *testing.T) {
			const nodes, rounds = 6, 5
			c, ports := rig(t, nodes, func(cfg *cluster.Config) {
				cfg.LossRate = 0.08
				cfg.Seed = 17
			}, coll.WithBarrierAlgo(algo))
			completed := make([]int, nodes)
			for i := 0; i < nodes; i++ {
				i := i
				c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
					for r := 0; r < rounds; r++ {
						c.Nodes[i].Coll.Barrier(p, ports[i], collGID)
						completed[i]++
					}
				})
			}
			c.Run()
			checkClean(t, c)
			for i, got := range completed {
				if got != rounds {
					t.Errorf("node %d completed %d/%d lossy barriers", i, got, rounds)
				}
			}
			var retrans uint64
			snap := c.Nodes[0].HW.Registry().Snapshot()
			for _, n := range c.Nodes {
				retrans += counter(t, snap, core.Component, int(n.ID), "retransmits") +
					counter(t, snap, coll.Component, int(n.ID), "retransmits")
			}
			if retrans == 0 {
				t.Error("lossy run recorded no retransmissions — loss not exercised")
			}
		})
	}
}

// wantFlat is the expected allgather result when member i contributes
// {100*i, 100*i + 1, ...}.
func wantFlat(nodes, veclen int) []int64 {
	out := make([]int64, 0, nodes*veclen)
	for i := 0; i < nodes; i++ {
		for j := 0; j < veclen; j++ {
			out = append(out, int64(100*i+j))
		}
	}
	return out
}

func runAllgather(t *testing.T, c *cluster.Cluster, ports []*gm.Port, veclen int) {
	t.Helper()
	nodes := len(c.Nodes)
	results := make([][]int64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
			vec := make([]int64, veclen)
			for j := range vec {
				vec[j] = int64(100*i + j)
			}
			results[i] = c.Nodes[i].Coll.Allgather(p, ports[i], collGID, vec)
		})
	}
	c.Run()
	checkClean(t, c)
	want := wantFlat(nodes, veclen)
	for i, res := range results {
		if len(res) != len(want) {
			t.Fatalf("node %d allgather returned %d elements, want %d", i, len(res), len(want))
		}
		for j := range want {
			if res[j] != want[j] {
				t.Fatalf("node %d allgather[%d] = %d, want %d", i, j, res[j], want[j])
			}
		}
	}
}

func TestAllgatherTree(t *testing.T) {
	c, ports := rig(t, 8, nil)
	runAllgather(t, c, ports, 3)
}

// TestAllgatherTreeMultiChunk forces interior batches past one MTU so the
// chunked upward path is exercised.
func TestAllgatherTreeMultiChunk(t *testing.T) {
	c, ports := rig(t, 8, nil)
	runAllgather(t, c, ports, 400) // 3208-byte entries; subtree batches span several packets
}

func TestAllgatherRing(t *testing.T) {
	c, ports := rig(t, 7, nil, coll.WithGatherAlgo(coll.GatherRing))
	runAllgather(t, c, ports, 4)
}

func TestAllgatherUnderLoss(t *testing.T) {
	for name, opts := range map[string][]coll.Option{
		"tree": nil,
		"ring": {coll.WithGatherAlgo(coll.GatherRing)},
	} {
		t.Run(name, func(t *testing.T) {
			c, ports := rig(t, 6, func(cfg *cluster.Config) {
				cfg.LossRate = 0.05
				cfg.Seed = 23
			}, opts...)
			runAllgather(t, c, ports, 5)
		})
	}
}

// TestAllgatherRepeated runs several back-to-back instances; instance
// bookkeeping must keep them separate.
func TestAllgatherRepeated(t *testing.T) {
	const nodes, rounds, veclen = 5, 4, 2
	c, ports := rig(t, nodes, nil)
	bad := false
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				vec := []int64{int64(1000*r + 100*i), int64(1000*r + 100*i + 1)}
				res := c.Nodes[i].Coll.Allgather(p, ports[i], collGID, vec)
				for m := 0; m < nodes; m++ {
					for j := 0; j < veclen; j++ {
						if res[m*veclen+j] != int64(1000*r+100*m+j) {
							bad = true
						}
					}
				}
			}
		})
	}
	c.Run()
	checkClean(t, c)
	if bad {
		t.Fatal("repeated allgather instances bled into each other")
	}
}

// TestEngineAllreduce drives the engine's own blocking Allreduce (the mpi
// layer has its own split-phase path).
func TestEngineAllreduce(t *testing.T) {
	const nodes = 6
	c, ports := rig(t, nodes, nil)
	results := make([][]int64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
			if i != 0 {
				ports[i].Provide(64)
			}
			results[i] = c.Nodes[i].Coll.Allreduce(p, ports[i], collGID, []int64{int64(i), 1}, coll.OpMax)
		})
	}
	c.Run()
	checkClean(t, c)
	for i, res := range results {
		if len(res) != 2 || res[0] != nodes-1 || res[1] != 1 {
			t.Fatalf("node %d allreduce = %v, want [%d 1]", i, res, nodes-1)
		}
	}
}

// TestRemoveDrainsGroupTable asserts collective-ordered teardown leaves no
// entries (auto-mirrored ones included).
func TestRemoveDrainsGroupTable(t *testing.T) {
	const nodes = 5
	c, ports := rig(t, nodes, nil)
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
			c.Nodes[i].Coll.Barrier(p, ports[i], collGID)
		})
	}
	c.Run()
	for _, n := range c.Nodes {
		n := n
		c.WithNode(n.ID, func() { n.Coll.Remove(collGID, nil) })
	}
	c.Run()
	for _, n := range c.Nodes {
		if got := n.Coll.Groups(); got != 0 {
			t.Errorf("node %v still holds %d collective entries after Remove", n.ID, got)
		}
	}
}

// TestShardedBarrierMatchesSerial is the quick in-package determinism
// check; the full byte-identical-timeline matrix lives in
// equivalence_test.go.
func TestShardedBarrierMatchesSerial(t *testing.T) {
	run := func(shards int) sim.Time {
		c, ports := rig(t, 8, func(cfg *cluster.Config) { cfg.Shards = shards })
		for i := 0; i < 8; i++ {
			i := i
			c.SpawnOn(c.Nodes[i].ID, "p", func(p *sim.Proc) {
				for r := 0; r < 3; r++ {
					c.Nodes[i].Coll.Barrier(p, ports[i], collGID)
				}
			})
		}
		c.Run()
		checkClean(t, c)
		return c.Now()
	}
	serial := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != serial {
			t.Errorf("%d-shard barrier finished at %v, serial at %v", shards, got, serial)
		}
	}
}

// Engine.Install keeps the caller's member list and trusts it to be in ID
// order, each member checking only its own place in it. Whatever the
// order, some member of the group must refuse an unsorted list.
func TestInstallRefusesUnsortedMembers(t *testing.T) {
	c := cluster.New(4)
	perm := []fabric.NodeID{0, 1, 2, 3}
	var try func(k int)
	try = func(k int) {
		if k < len(perm) {
			for i := k; i < len(perm); i++ {
				perm[k], perm[i] = perm[i], perm[k]
				try(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
			return
		}
		members := slices.Clone(perm)
		refused := 0
		for _, n := range c.Nodes {
			func() {
				defer func() {
					if recover() != nil {
						refused++
					}
				}()
				n.Coll.Install(collGID, members, 7, nil)
			}()
		}
		if slices.IsSorted(members) != (refused == 0) {
			t.Errorf("members %v: %d of 4 engines refused the list", members, refused)
		}
	}
	try(0)
}
