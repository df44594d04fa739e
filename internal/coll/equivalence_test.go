package coll_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Engine-equivalence property test for the collective engine: every
// collective algorithm, run on both fabric backends, must produce the
// exact same event timeline — every (timestamp, tiebreak key) pair fired
// by any engine — whether the cluster runs legacy-serial, explicit
// serial, 2-sharded or 4-sharded. This is PR-7's equivalence property
// extended to the collective platform: the conservative parallel engine
// may only change wall-clock time, never the simulated timeline.

type tlRec struct {
	when sim.Time
	key  uint64
}

// recordTimelines attaches a fire hook to every engine and returns a
// closure producing the merged (when, key)-sorted timeline.
func recordTimelines(c *cluster.Cluster) func() []tlRec {
	per := make([][]tlRec, len(c.Engines()))
	for i, e := range c.Engines() {
		i := i
		e.SetFireHook(func(when sim.Time, key uint64) {
			per[i] = append(per[i], tlRec{when, key})
		})
	}
	return func() []tlRec {
		var all []tlRec
		for _, recs := range per {
			all = append(all, recs...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].when != all[j].when {
				return all[i].when < all[j].when
			}
			return all[i].key < all[j].key
		})
		return all
	}
}

var modes = []struct {
	name   string
	shards int
}{
	{"legacy", 0},
	{"serial", 1},
	{"2-shard", 2},
	{"4-shard", 4},
}

var fabrics = []struct {
	name string
	cfg  fabric.Config
}{
	{"myrinet", myrinet.Default()},
	{"clos", clos.Default()},
}

func diffTimelines(t *testing.T, label string, want, got []tlRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: fired %d events, baseline fired %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: timeline diverges at event %d: got (%v, %#x), want (%v, %#x)",
				label, i, got[i].when, got[i].key, want[i].when, want[i].key)
		}
	}
}

// collCase is one collective algorithm's workload: three rounds with a
// rotating skew, returning whatever per-node data the collective yields
// (completion times for barriers, result vectors for the rest) so result
// equality is checked alongside timeline equality.
type collCase struct {
	name string
	opts []coll.Option
	run  func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) []int64
}

const eqRounds = 3

func eqSkew(p *sim.Proc, i, r, nodes int) {
	p.Compute(sim.Micros(float64(((i + r) % nodes) * 13)))
}

func collCases() []collCase {
	barrier := func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) []int64 {
		var out []int64
		for r := 0; r < eqRounds; r++ {
			eqSkew(p, i, r, len(c.Nodes))
			c.Nodes[i].Coll.Barrier(p, port, collGID)
			out = append(out, int64(p.Now()))
		}
		return out
	}
	gather := func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) []int64 {
		var out []int64
		for r := 0; r < eqRounds; r++ {
			eqSkew(p, i, r, len(c.Nodes))
			vec := []int64{int64(1000*r + 100*i), int64(1000*r + 100*i + 1)}
			out = append(out, c.Nodes[i].Coll.Allgather(p, port, collGID, vec)...)
		}
		return out
	}
	return []collCase{
		{name: "barrier-dissemination", run: barrier},
		{
			name: "barrier-tree",
			opts: []coll.Option{coll.WithBarrierAlgo(coll.BarrierTree)},
			run:  barrier,
		},
		{
			name: "reduce",
			run: func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) []int64 {
				var out []int64
				for r := 0; r < eqRounds; r++ {
					eqSkew(p, i, r, len(c.Nodes))
					vec := []int64{int64(1000*r + 100*i), 7}
					res := c.Nodes[i].Coll.Reduce(p, port, collGID, vec, coll.OpSum)
					out = append(out, res...)
					// Non-roots return as soon as they contribute; the
					// barrier keeps successive instances distinct rounds.
					c.Nodes[i].Coll.Barrier(p, port, collGID)
				}
				return out
			},
		},
		{
			name: "allreduce",
			run: func(p *sim.Proc, c *cluster.Cluster, i int, port *gm.Port) []int64 {
				var out []int64
				for r := 0; r < eqRounds; r++ {
					eqSkew(p, i, r, len(c.Nodes))
					if i != 0 {
						port.Provide(16)
					}
					vec := []int64{int64(1000*r + 100*i), int64(i)}
					out = append(out, c.Nodes[i].Coll.Allreduce(p, port, collGID, vec, coll.OpMax)...)
				}
				return out
			},
		},
		{name: "allgather-tree", run: gather},
		{
			name: "allgather-ring",
			opts: []coll.Option{coll.WithGatherAlgo(coll.GatherRing)},
			run:  gather,
		},
	}
}

// runCollCase executes one (case, fabric, mode, seed) point and returns
// the merged timeline, the per-node results, and the finish time.
func runCollCase(t *testing.T, cc collCase, fb fabric.Config, shards int, seed int64, nodes int) ([]tlRec, [][]int64, sim.Time) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Fabric = fb
	cfg.Link = fb.Links
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	tl := recordTimelines(c)
	ports := c.OpenPorts(7)
	c.InstallGroup(collGID, tree.Binomial(0, c.Members()), 7, 7)
	ready := c.InstallCollGroup(collGID, c.Members(), 7, cc.opts...)
	c.Run() // settle both group tables before the workload starts
	if !ready() {
		t.Fatal("collective group installation did not settle")
	}
	results := make([][]int64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(c.Nodes[i].ID, "eq", func(p *sim.Proc) {
			results[i] = cc.run(p, c, i, ports[i])
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("workload stalled with %d live procs", live)
	}
	for _, n := range c.Nodes {
		if s := n.Coll.DebugLeaks(); s != "" {
			t.Fatalf("node %v leaked collective state: %s", n.ID, s)
		}
	}
	return tl(), results, c.Now()
}

// TestCollEquivalenceMatrix is the full matrix: every collective × both
// fabrics × {legacy, serial, 2, 4 shards}, byte-identical timelines and
// identical results required everywhere.
func TestCollEquivalenceMatrix(t *testing.T) {
	const nodes = 12
	for _, fb := range fabrics {
		fb := fb
		for _, cc := range collCases() {
			cc := cc
			t.Run(fb.name+"/"+cc.name, func(t *testing.T) {
				for _, seed := range []int64{1, 2} {
					var baseTL []tlRec
					var baseRes [][]int64
					var baseNow sim.Time
					for mi, m := range modes {
						tl, res, now := runCollCase(t, cc, fb.cfg, m.shards, seed, nodes)
						if mi == 0 {
							baseTL, baseRes, baseNow = tl, res, now
							if len(baseTL) == 0 {
								t.Fatalf("seed %d: baseline fired no events", seed)
							}
							continue
						}
						label := fmt.Sprintf("seed %d %s", seed, m.name)
						diffTimelines(t, label, baseTL, tl)
						if !reflect.DeepEqual(res, baseRes) {
							t.Errorf("%s: collective results diverged from baseline", label)
						}
						if now != baseNow {
							t.Errorf("%s: finished at %v, baseline at %v", label, now, baseNow)
						}
					}
				}
			})
		}
	}
}
