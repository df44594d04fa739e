package coll_test

import (
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// clockCase is one loss-free collective workload whose finishing virtual
// clock and fired-event count are pinned per fabric and size.
type clockCase struct {
	name   string
	opts   []coll.Option
	mut    func(*cluster.Config)
	run    func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port)
	pinned map[string][2]uint64 // "fabric/nodes" -> {virtual ns, events fired}
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
		{name: "barrier-dissemination", run: barrier, pinned: map[string][2]uint64{
			"myrinet/16": {622608, 1952},
			"myrinet/64": {2512176, 13856},
			"clos/16":    {626422, 2720},
			"clos/64":    {2519834, 20000},
		}},
		{
			name: "barrier-tree", opts: []coll.Option{coll.WithBarrierAlgo(coll.BarrierTree)},
			run: barrier, pinned: map[string][2]uint64{
				"myrinet/16": {638204, 1136},
				"myrinet/64": {2540540, 4856},
				"clos/16":    {644336, 1496},
				"clos/64":    {2551160, 6344},
			},
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
			pinned: map[string][2]uint64{
				"myrinet/16": {706429, 1376},
				"myrinet/64": {2643709, 5816},
				"clos/16":    {711469, 1736},
				"clos/64":    {2652865, 7304},
			},
		},
		{name: "allgather-tree-1chunk", run: gather(2), pinned: map[string][2]uint64{
			"myrinet/16": {722966, 1376},
			"myrinet/64": {2746034, 5816},
			"clos/16":    {713941, 1736},
			"clos/64":    {2671139, 7304},
		}},
		{name: "allgather-tree-chunks", run: gather(400), pinned: map[string][2]uint64{
			"myrinet/16": {4170530, 7736},
			"myrinet/64": {22007125, 115538},
			"clos/16":    {1490132, 10448},
			"clos/64":    {6302887, 155138},
		}},
		{
			name: "allgather-ring", opts: []coll.Option{coll.WithGatherAlgo(coll.GatherRing)},
			run: gather(4), pinned: map[string][2]uint64{
				"myrinet/16": {742128, 6896},
				"myrinet/64": {3073200, 116576},
				"clos/16":    {749893, 9776},
				"clos/64":    {3102938, 164960},
			},
		},
		{
			name: "allgather-tree-chunks-ackevery4",
			mut:  func(cfg *cluster.Config) { cfg.GM.AckEvery = 4 },
			run:  gather(400), pinned: map[string][2]uint64{
				"myrinet/16": {4052846, 7556},
				"myrinet/64": {21411669, 114032},
				"clos/16":    {1407988, 10178},
				"clos/64":    {5782263, 152948},
			},
		},
	}
}

// TestCollClockPins pins, for every collective algorithm on both fabrics
// at 16 and 64 hosts, the virtual clock at which a loss-free three-round
// workload finishes and the number of events it fires. Any change in
// either means a loss-free collective timeline moved.
func TestCollClockPins(t *testing.T) {
	for _, cc := range clockCases() {
		for _, fb := range fabrics {
			for _, nodes := range []int{16, 64} {
				label := fb.name + "/" + strconv.Itoa(nodes)
				t.Run(cc.name+"/"+label, func(t *testing.T) {
					cfg := cluster.DefaultConfig(nodes)
					cfg.Seed = 1
					cfg.Fabric = fb.cfg
					cfg.Link = fb.cfg.Links
					if cc.mut != nil {
						cc.mut(cfg)
					}
					c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
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
					got := [2]uint64{uint64(c.Now()), fired}
					if want, ok := cc.pinned[label]; !ok || got != want {
						t.Errorf("finished at %v ns after %d events, pinned %v", got[0], got[1], want)
					}
				})
			}
		}
	}
}
