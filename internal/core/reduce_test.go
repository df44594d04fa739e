package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

const reduceGID gm.GroupID = 70

// reduceRig builds a cluster with a binomial group installed and settled.
func reduceRig(t *testing.T, nodes int, mut func(*cluster.Config)) (*cluster.Cluster, []*gm.Port) {
	t.Helper()
	c := cluster.New(nodes, cluster.WithMutate(mut))
	ports := c.OpenPorts(8)
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(reduceGID, tr, 8, 8)
	c.Eng.Run() // settle installations before spawning hosts
	return c, ports
}

func TestNICReduceSum(t *testing.T) {
	const nodes = 9
	c, ports := reduceRig(t, nodes, nil)
	var result []int64
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			vec := []int64{int64(i + 1), int64(10 * (i + 1))}
			res := c.Nodes[i].Coll.Reduce(p, ports[i], reduceGID, vec, coll.OpSum)
			if i == 0 {
				result = res
			} else if res != nil {
				t.Errorf("non-root %d got a result", i)
			}
		})
	}
	c.Eng.Run()
	c.Eng.Kill()
	// 1+2+...+9 = 45; tens column 450.
	if len(result) != 2 || result[0] != 45 || result[1] != 450 {
		t.Fatalf("reduce sum = %v, want [45 450]", result)
	}
}

func TestNICReduceMinMax(t *testing.T) {
	const nodes = 6
	for _, tc := range []struct {
		op   coll.ReduceOp
		want int64
	}{{coll.OpMin, -5}, {coll.OpMax, 0}} {
		c, ports := reduceRig(t, nodes, nil)
		var result []int64
		for i := 0; i < nodes; i++ {
			i := i
			c.Eng.Spawn("p", func(p *sim.Proc) {
				res := c.Nodes[i].Coll.Reduce(p, ports[i], reduceGID, []int64{int64(-i)}, tc.op)
				if i == 0 {
					result = res
				}
			})
		}
		c.Eng.Run()
		c.Eng.Kill()
		if len(result) != 1 || result[0] != tc.want {
			t.Fatalf("op %v = %v, want %d", tc.op, result, tc.want)
		}
	}
}

func TestNICAllreduce(t *testing.T) {
	const nodes = 8
	c, ports := reduceRig(t, nodes, nil)
	results := make([][]int64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			if i != 0 {
				ports[i].Provide(64) // token for the downward multicast
			}
			results[i] = c.Nodes[i].Coll.Allreduce(p, ports[i], reduceGID, []int64{1}, coll.OpSum)
		})
	}
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("allreduce stalled with %d live procs", live)
	}
	c.Eng.Kill()
	for i, res := range results {
		if len(res) != 1 || res[0] != nodes {
			t.Fatalf("rank %d allreduce = %v, want [%d]", i, res, nodes)
		}
	}
}

func TestNICReduceRepeatedInstances(t *testing.T) {
	const nodes, rounds = 5, 6
	c, ports := reduceRig(t, nodes, nil)
	sums := make([]int64, 0, rounds)
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				res := c.Nodes[i].Coll.Reduce(p, ports[i], reduceGID, []int64{int64(r)}, coll.OpSum)
				if i == 0 {
					sums = append(sums, res[0])
				}
			}
		})
	}
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("repeated reduce stalled with %d live procs", live)
	}
	c.Eng.Kill()
	for r, s := range sums {
		if s != int64(r*nodes) {
			t.Fatalf("round %d sum = %d, want %d", r, s, r*nodes)
		}
	}
}

func TestNICReduceUnderLoss(t *testing.T) {
	const nodes = 7
	c, ports := reduceRig(t, nodes, func(cfg *cluster.Config) {
		cfg.LossRate = 0.05
		cfg.Seed = 41
	})
	var result []int64
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			res := c.Nodes[i].Coll.Reduce(p, ports[i], reduceGID, []int64{1}, coll.OpSum)
			if i == 0 {
				result = res
			}
		})
	}
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("lossy reduce stalled with %d live procs", live)
	}
	c.Eng.Kill()
	if len(result) != 1 || result[0] != nodes {
		t.Fatalf("lossy reduce = %v, want [%d] — duplicates double-counted or lost", result, nodes)
	}
}

func TestNICReduceVectorTooLargePanics(t *testing.T) {
	c, ports := reduceRig(t, 2, nil)
	c.Eng.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversized reduce vector did not panic")
			}
		}()
		c.Nodes[0].Coll.Reduce(p, ports[0], reduceGID, make([]int64, 4096), coll.OpSum)
	})
	c.Eng.Run()
	c.Eng.Kill()
}

func TestNICReduceChargesLANaiCost(t *testing.T) {
	// Larger vectors must take longer: the per-element combining cost on
	// the slow NIC processor is the companion paper's central trade-off.
	run := func(elems int) sim.Time {
		c, ports := reduceRig(t, 8, nil)
		for i := 0; i < 8; i++ {
			i := i
			c.Eng.Spawn("p", func(p *sim.Proc) {
				c.Nodes[i].Coll.Reduce(p, ports[i], reduceGID, make([]int64, elems), coll.OpSum)
			})
		}
		c.Eng.Run()
		c.Eng.Kill()
		return c.Eng.Now()
	}
	small, large := run(4), run(400)
	if large <= small {
		t.Fatalf("400-element reduce (%v) not slower than 4-element (%v)", large, small)
	}
}
