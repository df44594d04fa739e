package chaos

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The collective workload's two contexts share one port, the way
// internal/mpi multiplexes its port across communicators. collGroupTree
// pairs the dissemination barrier with the concatenate-and-forward tree
// allgather; collGroupRing pairs the binomial tree barrier with the ring
// allgather. Alternating rounds between them puts every collective
// algorithm the engine implements under fire in one campaign.
const (
	collGroupTree gm.GroupID = 1
	collGroupRing gm.GroupID = 2
)

// MatchKinds builds a Match selecting exactly the given frame kinds —
// the scalpel collective scenarios use to fault one protocol's traffic
// while leaving the rest of the stack clean.
func MatchKinds(kinds ...gm.Kind) Match {
	return func(p *fabric.Packet, _ *fabric.Link) bool {
		kind, ok := gm.KindOf(p)
		return ok && slices.Contains(kinds, kind)
	}
}

var (
	// MatchCollData matches collective protocol frames (barrier rounds,
	// reduce vectors, allgather chunks, ring hops), leaving their acks and
	// all point-to-point/multicast traffic untouched.
	MatchCollData = MatchKinds(gm.KindBarrier, gm.KindReduce, gm.KindGather, gm.KindRing)

	// MatchCollAcks matches collective acknowledgments — losing these
	// exercises the go-back-N retransmit and duplicate-rejection paths on
	// the receiving side.
	MatchCollAcks = MatchKinds(gm.KindBarrierAck, gm.KindReduceAck, gm.KindGatherAck, gm.KindRingAck)
)

// CollLibrary returns the collective scenario set, in fixed order.
func CollLibrary() []Scenario {
	return []Scenario{
		{
			Name: "coll-barrier-burst-loss",
			Desc: "every barrier round frame dropped for the first half of live traffic; each peer's go-back-N window must carry both barrier algorithms through",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("barrier-burst", f.At(0.05), f.At(0.5),
					MatchKinds(gm.KindBarrier))
			},
		},
		{
			Name: "coll-reduce-dup-storm",
			Desc: "every 2nd reduce frame and reduce ack duplicated all run; each peer stream's sequence gate must reject every copy before the combine",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("reduce-dup", 0, 0, 2,
					MatchKinds(gm.KindReduce, gm.KindReduceAck))
			},
		},
		{
			Name: "coll-gather-burst-loss",
			Desc: "allgather chunk and ring hop frames dropped through the middle of the run; chunked batch transfers must resume where the ack left off",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("gather-burst", f.At(0.2), f.At(0.7),
					MatchKinds(gm.KindGather, gm.KindRing))
			},
		},
		{
			Name: "coll-ack-loss",
			Desc: "collective acks of every class dropped early in the run; retransmitted rounds, vectors and chunks must be re-acked and deduplicated",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("ack-loss", f.At(0.05), f.At(0.6), MatchCollAcks)
			},
		},
		{
			Name: "coll-root-pause",
			Desc: "the tree root's NIC goes deaf mid-run; contributions queued at the children must survive in their send windows until the firmware returns",
			Inject: func(f *Fault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, f.At(0.15), f.At(0.45))
			},
		},
		{
			Name: "coll-bursty-links",
			Desc: "Gilbert–Elliott bursty loss over collective data frames on all links, all run",
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-coll", 0.02, 0.25, 0.001, 0.5, MatchCollData)
			},
		},
		{
			Name: "coll-dup-storm",
			Desc: "every 3rd packet of any kind duplicated all run; collective and multicast dedup must agree that nothing is delivered twice",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
	}
}

// Collective is the NIC-collective workload: every node runs Rounds rounds
// of barrier + allreduce + allgather over Veclen-element vectors,
// alternating between the tree-algorithm and ring-algorithm groups. Its
// invariant is correct results at every node every round and a drained
// collective engine; there is no packet census, because how many frames a
// collective takes is the algorithm's business.
type Collective struct {
	Rounds int
	Veclen int
}

func (w Collective) withDefaults() Collective {
	if w.Rounds <= 0 {
		w.Rounds = 4
	}
	if w.Veclen <= 0 {
		w.Veclen = 4
	}
	return w
}

// MinNodes: the smallest cluster a collective means anything on.
func (Collective) MinNodes() int { return 2 }

func (Collective) Deadline() sim.Time { return 500 * sim.Millisecond }

func (Collective) Params() []Stat { return nil }

// Plan works out the expected results per round: the allreduce sum and the
// flat allgather concatenation over every member's contribution.
func (w Collective) Plan(cfg Config) (Job, error) {
	w = w.withDefaults()
	j := &collJob{Collective: w, wantSum: make([][]int64, w.Rounds), wantFlat: make([][]int64, w.Rounds)}
	for r := 0; r < w.Rounds; r++ {
		j.wantSum[r] = make([]int64, w.Veclen)
		for i := 0; i < cfg.Nodes; i++ {
			v := collVec(r, i, w.Veclen)
			j.wantFlat[r] = append(j.wantFlat[r], v...)
			for k := range v {
				j.wantSum[r][k] += v[k]
			}
		}
	}
	return j, nil
}

// collVec is the deterministic contribution of node i in round r.
func collVec(r, i, veclen int) []int64 {
	v := make([]int64, veclen)
	for j := range v {
		v[j] = int64(1000*r + 100*i + j)
	}
	return v
}

type collJob struct {
	Collective
	wantSum, wantFlat [][]int64
	ports             []*gm.Port
}

// Prepare installs both collective contexts and, unlike the other
// workloads, runs the cluster until their group tables settle — before any
// fault exists, so a scenario can only disturb collective traffic, never
// set-up.
func (j *collJob) Prepare(env *Env) ([]*gm.Port, error) {
	c := env.Cluster
	j.ports = c.OpenPorts(dataPort)
	// Both groups need the multicast tree (reduce/allgather neighborhoods
	// and the downward result multicasts) alongside the collective entry.
	c.InstallGroup(collGroupTree, tree.Binomial(0, c.Members()), dataPort, dataPort)
	c.InstallGroup(collGroupRing, tree.Binomial(0, c.Members()), dataPort, dataPort)
	readyTree := c.InstallCollGroup(collGroupTree, c.Members(), dataPort)
	readyRing := c.InstallCollGroup(collGroupRing, c.Members(), dataPort,
		coll.WithBarrierAlgo(coll.BarrierTree), coll.WithGatherAlgo(coll.GatherRing))
	c.Run()
	if !readyTree() || !readyRing() {
		return nil, errors.New("collective group installation did not settle")
	}
	// Both trees are rooted at the lowest member id; there are two of them,
	// so no single Tree to aim at.
	env.Inject(c.Nodes[0].ID, nil)
	return j.ports, nil
}

func (j *collJob) Drive(env *Env) (sim.Time, []string) {
	c, ports, nodes := env.Cluster, j.ports, len(env.Cluster.Nodes)
	nodeViol := make([][]string, nodes)
	finish := make([]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(fabric.NodeID(i), "coll-chaos", func(p *sim.Proc) {
			nd := c.Nodes[i]
			for r := 0; r < j.Rounds; r++ {
				gid := collGroupTree
				if r%2 == 1 {
					gid = collGroupRing
				}
				// Rotating per-round skew so a different member is last
				// into every barrier.
				p.Compute(sim.Micros(float64(((i + r) % nodes) * 11)))
				nd.Coll.Barrier(p, ports[i], gid)

				if i != 0 {
					// The root multicasts the allreduce result down the
					// tree; size a receive token for it before entering.
					ports[i].Provide(8 * j.Veclen)
				}
				sum := nd.Coll.Allreduce(p, ports[i], gid, collVec(r, i, j.Veclen), coll.OpSum)
				if !slices.Equal(sum, j.wantSum[r]) {
					nodeViol[i] = append(nodeViol[i], fmt.Sprintf(
						"node %d round %d: allreduce = %v, want %v", i, r, sum, j.wantSum[r]))
				}

				flat := nd.Coll.Allgather(p, ports[i], gid, collVec(r, i, j.Veclen))
				if !slices.Equal(flat, j.wantFlat[r]) {
					nodeViol[i] = append(nodeViol[i], fmt.Sprintf(
						"node %d round %d: allgather result corrupted", i, r))
				}
			}
			finish[i] = p.Now()
		})
	}
	c.RunUntil(env.Cfg.Deadline)
	return collect(finish, nodeViol)
}

// Check verifies every NIC's collective engine drained: go-back-N
// recovery must leave no unacked records, no armed timers, and no open
// collective instances behind. It reports the duplicate collective frames
// the engines rejected.
func (j *collJob) Check(env *Env, d metrics.Snapshot) ([]string, []Stat) {
	var v []string
	for i, n := range env.Cluster.Nodes {
		if n.Coll == nil {
			continue
		}
		if s := n.Coll.DebugLeaks(); s != "" {
			v = append(v, fmt.Sprintf("node %d: leaked collective state: %s", i, s))
		}
		if r := n.Coll.Outstanding(); r != 0 {
			v = append(v, fmt.Sprintf("node %d: %d unacked collective records", i, r))
		}
		if t := n.Coll.PendingTimers(); t != 0 {
			v = append(v, fmt.Sprintf("node %d: %d collective retransmit timers still armed", i, t))
		}
	}
	return v, []Stat{{"colldups", d.CounterSum("coll", "duplicates")}}
}
