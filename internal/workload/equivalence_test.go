package workload_test

import (
	"reflect"
	"testing"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/member"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Engine-equivalence property test: every registered workload pattern,
// run at several seeds on both fabric backends, must produce the exact
// same event timeline — every (timestamp, tiebreak key) pair fired by any
// engine — under four execution modes:
//
//	legacy  — Config.Shards left zero, the path every pre-existing caller
//	          takes (pins that sharding support didn't change defaults)
//	serial  — an explicit WithShards(1)
//	2-shard — conservative parallel, two engines
//	4-shard — conservative parallel, four engines
//
// Sharded modes exercise the adaptive coordinator end to end — per-pair
// lookahead matrix, window stretching, inline single-shard windows,
// skipped drains — so this is the property pinning that adaptivity moves
// only wall-clock behavior, never the timeline. Reports/results are
// compared too: the timeline proves the engines agree, the report proves
// the workload-visible numbers do.

// modes lists the execution modes under test as Config.Shards values.
var modes = []struct {
	name   string
	shards int
}{
	{"legacy", 0},
	{"serial", 1},
	{"2-shard", 2},
	{"4-shard", 4},
}

// fabrics lists the interconnect backends the equivalence property must
// hold on. The uniform-latency Myrinet fabric and the 3x-faster PFC Clos
// fabric stress different window widths and cross-shard densities.
var fabrics = []struct {
	name string
	cfg  fabric.Config
}{
	{"myrinet", myrinet.Default()},
	{"clos", clos.Default()},
}

func TestEngineEquivalenceAcrossPatterns(t *testing.T) {
	const nodes = 16
	p2p := []workload.Pattern{workload.Uniform, workload.Permutation, workload.Hotspot, workload.Neighbor}
	for _, fb := range fabrics {
		fb := fb
		for _, pat := range p2p {
			pat := pat
			t.Run(fb.name+"/"+string(pat), func(t *testing.T) {
				for _, seed := range []int64{1, 2, 3} {
					var baseTL []golden.Event
					var baseRep workload.Report
					for mi, m := range modes {
						cfg := cluster.DefaultConfig(nodes)
						cfg.Seed = seed
						cfg.Shards = m.shards
						cfg.Fabric = fb.cfg
						var tl func() []golden.Event
						rep, err := workload.RunWith(cfg, workload.Spec{
							Pattern:  pat,
							Messages: 60,
							MeanSize: 2048,
							MeanGap:  5 * sim.Microsecond,
						}, func(c *cluster.Cluster) { tl = golden.Hook(c.Engines()) })
						if err != nil {
							t.Fatalf("seed %d %s: %v", seed, m.name, err)
						}
						if mi == 0 {
							baseTL, baseRep = tl(), rep
							if len(baseTL) == 0 {
								t.Fatalf("seed %d: baseline fired no events", seed)
							}
							continue
						}
						golden.Equal(t, golden.Capture{Stream: baseTL}, golden.Capture{Stream: tl()})
						if t.Failed() {
							t.Fatalf("seed %d %s: timeline diverged from the baseline", seed, m.name)
						}
						if rep != baseRep {
							t.Errorf("seed %d %s: report %+v != baseline %+v", seed, m.name, rep, baseRep)
						}
					}
				}
			})
		}
	}
}

// TestEngineEquivalenceChurn covers the remaining registered pattern:
// Churn rides the membership subsystem (group schedule, two-phase epoch
// rolls) rather than the point-to-point runner, and its Result carries
// the full delivery and epoch ground truth — all of it must match.
func TestEngineEquivalenceChurn(t *testing.T) {
	const nodes = 12
	for _, fb := range fabrics {
		fb := fb
		t.Run(fb.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				var baseTL []golden.Event
				var base *member.Result
				for mi, m := range modes {
					plan, err := workload.GenerateChurn(workload.ChurnSpec{
						Nodes:        nodes,
						Transitions:  4,
						Msgs:         10,
						MeanSize:     1024,
						MeanGap:      15 * sim.Microsecond,
						MeanChurnGap: 60 * sim.Microsecond,
					}, sim.NewRNG(seed))
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					c := cluster.New(nodes, cluster.WithSeed(seed),
						cluster.WithShards(m.shards), cluster.WithFabric(fb.cfg))
					tl := golden.Hook(c.Engines())
					res := member.Run(c, member.Config{}, plan)
					if vs := res.Verify(); len(vs) != 0 {
						t.Fatalf("seed %d %s: churn run violated invariants: %v", seed, m.name, vs)
					}
					if mi == 0 {
						baseTL, base = tl(), res
						continue
					}
					golden.Equal(t, golden.Capture{Stream: baseTL}, golden.Capture{Stream: tl()})
					if t.Failed() {
						t.Fatalf("seed %d %s: timeline diverged from the baseline", seed, m.name)
					}
					if res.Finish != base.Finish {
						t.Errorf("seed %d %s: finish %v != baseline %v", seed, m.name, res.Finish, base.Finish)
					}
					if !reflect.DeepEqual(res.Epochs, base.Epochs) {
						t.Errorf("seed %d %s: epoch ground truth diverged", seed, m.name)
					}
					if !reflect.DeepEqual(res.Deliveries, base.Deliveries) {
						t.Errorf("seed %d %s: delivery sequences diverged", seed, m.name)
					}
					if !reflect.DeepEqual(res.SendEpoch, base.SendEpoch) {
						t.Errorf("seed %d %s: send-epoch stamps diverged", seed, m.name)
					}
				}
			}
		})
	}
}
