package coll_test

import (
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/gm"
	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/tree"
)

// clockCase is one loss-free collective workload whose finishing virtual
// clock, fired-event count and event stream are pinned per fabric and size.
type clockCase struct {
	name string
	opts []coll.Option
	mut  func(*cluster.Config)
	run  func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port)
}

func clockCases() []clockCase {
	barrier := func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) {
		for r := 0; r < eqRounds; r++ {
			eqSkew(p, i, r, len(c.Nodes))
			c.Nodes[i].Coll.Barrier(p, port, collGID)
		}
	}
	gather := func(veclen int) func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) {
		return func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) {
			for r := 0; r < eqRounds; r++ {
				eqSkew(p, i, r, len(c.Nodes))
				vec := make([]int64, veclen)
				for j := range vec {
					vec[j] = int64(1000*r + 100*i + j)
				}
				c.Nodes[i].Coll.Allgather(p, port, collGID, vec)
			}
		}
	}
	return []clockCase{
		{name: "barrier-dissemination", run: barrier},
		{
			name: "barrier-tree", opts: []coll.Option{coll.WithBarrierAlgo(coll.BarrierTree)},
			run: barrier,
		},
		{
			name: "allreduce",
			run: func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) {
				for r := 0; r < eqRounds; r++ {
					eqSkew(p, i, r, len(c.Nodes))
					if i != 0 {
						port.Provide(16)
					}
					c.Nodes[i].Coll.Allreduce(p, port, collGID, []int64{int64(1000*r + 100*i), int64(i)}, coll.OpSum)
				}
			},
		},
		{name: "allgather-tree-1chunk", run: gather(2)},
		{name: "allgather-tree-chunks", run: gather(400)},
		{
			name: "allgather-ring", opts: []coll.Option{coll.WithGatherAlgo(coll.GatherRing)},
			run: gather(4),
		},
		{
			name: "allgather-tree-chunks-ackevery4",
			mut:  func(cfg *cluster.Config) { cfg.GM.AckEvery = 4 },
			run:  gather(400),
		},
	}
}

// TestCollClockPins pins, for every collective algorithm on both fabrics
// at 16 and 64 hosts, the virtual clock at which a loss-free three-round
// workload finishes, the number of events it fires and digests of the
// events themselves. Any change means a loss-free collective timeline moved.
func TestCollClockPins(t *testing.T) {
	for _, cc := range clockCases() {
		for _, fb := range fabrics {
			for _, nodes := range []int{16, 64} {
				label := fb.name + "/" + strconv.Itoa(nodes)
				t.Run(cc.name+"/"+label, func(t *testing.T) {
					cfg := cluster.DefaultConfig(nodes)
					cfg.Seed = 1
					cfg.Fabric = fb.cfg
					if cc.mut != nil {
						cc.mut(cfg)
					}
					c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
					stream := golden.Hook(c.Engines())
					ports := c.OpenPorts(7)
					c.InstallGroup(collGID, tree.Binomial(0, c.Members()), 7, 7)
					ready := c.InstallCollGroup(collGID, c.Members(), 7, cc.opts...)
					c.Run()
					if !ready() {
						t.Fatal("collective group installation did not settle")
					}
					for i := range c.Nodes {
						c.SpawnOn(c.Nodes[i].ID, "pin", func(p *sim.Proc) { cc.run(p, c, i, ports[i]) })
					}
					c.Run()
					checkClean(t, c)
					var fired uint64
					for _, e := range c.Engines() {
						fired += e.EventsFired()
					}
					snap := c.Nodes[0].HW.Registry().Snapshot()
					for _, n := range c.Nodes {
						if r := counter(t, snap, coll.Component, int(n.ID), "retransmits"); r != 0 {
							t.Fatalf("node %v retransmitted %d collective frames on a loss-free fabric", n.ID, r)
						}
					}
					golden.Check(t, "TestCollClockPins", cc.name+"/"+label,
						golden.Capture{Clock: c.Now(), Events: fired, Stream: stream()})
				})
			}
		}
	}
}
