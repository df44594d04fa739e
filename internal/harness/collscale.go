package harness

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Collective scaling experiment — the collective-engine counterpart of the
// broadcast ScaleSweep: the average completion latency of MPI_Barrier,
// MPI_Allreduce and MPI_Allgather in their traditional host-based forms
// versus the NIC-resident collective engine, across system sizes up to
// thousands of hosts. Both variants ride the full MPI layer, so the
// comparison includes every host-side cost the paper's methodology counts.

// CollNames lists the collectives the scaling sweep measures.
var CollNames = []string{"barrier", "allreduce", "allgather"}

// CollPoint is one (collective, system size) comparison; units are
// microseconds per operation.
type CollPoint struct {
	Collective string
	Nodes      int
	HB         float64 // host-based algorithm (dissemination / recursive doubling / Bruck)
	NB         float64 // NIC-resident collective engine
	// NBFallback marks a point where the MPI layer's NIC path does not
	// apply (an allgather result past the eager limit) and the NB column
	// therefore measured the host fallback.
	NBFallback bool
}

// Factor reports HB/NB.
func (p CollPoint) Factor() float64 {
	if p.NB == 0 {
		return 0
	}
	return p.HB / p.NB
}

// AllgatherNICEligible reports whether the MPI layer's NIC allgather path
// applies at this system size: the flat result must fit one eager-mode
// receive buffer to ride the preposted token pool down the multicast tree.
func AllgatherNICEligible(nodes, veclen int) bool {
	return 8*nodes*veclen <= mpi.EagerMax
}

// CollLatency measures the average latency of one collective at the MPI
// layer: every rank runs Warmup+Iters back-to-back operations (the
// collective itself keeps the ranks synchronized) and the per-call time is
// averaged over ranks and iterations. Per-rank accumulators keep the
// measurement race-free on sharded clusters.
func (o Options) CollLatency(collective string, nodes, veclen int, useNB bool) float64 {
	switch collective {
	case "barrier", "allreduce", "allgather":
	default:
		// Checked before the cluster spins up: a panic inside a rank's
		// process goroutine would be unrecoverable for the caller.
		panic(fmt.Sprintf("harness: unknown collective %q", collective))
	}
	c := o.build(nodes)
	w := mpi.NewWorld(c, useNB)
	total := o.Warmup + o.Iters
	perRank := make([]sim.Time, nodes)

	w.Run(func(r *mpi.Rank) {
		vec := make([]int64, veclen)
		for j := range vec {
			vec[j] = int64(100*r.ID() + j)
		}
		op := func() {
			switch collective {
			case "barrier":
				r.Barrier()
			case "allreduce":
				r.AllreduceVec(vec, coll.OpSum)
			case "allgather":
				r.AllgatherVec(vec)
			default:
				panic(fmt.Sprintf("harness: unknown collective %q", collective))
			}
		}
		for i := 0; i < o.Warmup; i++ {
			op()
		}
		var mine sim.Time
		for i := o.Warmup; i < total; i++ {
			t0 := r.Now()
			op()
			mine += r.Now() - t0
		}
		perRank[r.ID()] = mine
	})

	var sum sim.Time
	for _, t := range perRank {
		sum += t
	}
	return sum.Micros() / float64(nodes*o.Iters)
}

// CollScaleSweep compares host-based and NIC-resident collectives across
// system sizes. Points run in parallel per Options.Workers.
func (o Options) CollScaleSweep(collectives []string, nodeCounts []int, veclen int) []CollPoint {
	var pts []CollPoint
	for _, name := range collectives {
		for _, n := range nodeCounts {
			pts = append(pts, CollPoint{Collective: name, Nodes: n})
		}
	}
	return parallelMap(o.workerCount(len(pts)), pts, func(_ int, p CollPoint) CollPoint {
		p.HB = o.CollLatency(p.Collective, p.Nodes, veclen, false)
		p.NB = o.CollLatency(p.Collective, p.Nodes, veclen, true)
		p.NBFallback = p.Collective == "allgather" && !AllgatherNICEligible(p.Nodes, veclen)
		return p
	})
}

// CollScaleNodeCounts is the default sweep: the paper-scale 512, 1024 and
// 2048-host systems (three-level Clos territory on either fabric).
func CollScaleNodeCounts() []int { return []int{512, 1024, 2048} }

// BarrierSkewCPUTime measures the average host time spent inside
// MPI_Barrier under random process skew, the Figure-6 protocol applied to
// the barrier: ranks synchronize with a barrier, draw a skew, compute for
// it, then the time inside the next barrier is averaged over ranks and
// iterations. Skew draws come from per-rank generators seeded
// independently of the protocol under test, so the host-based and
// NIC-based runs see identical skew patterns.
func (o Options) BarrierSkewCPUTime(nodes int, avgSkewUs float64, useNB bool) float64 {
	c := o.build(nodes)
	w := mpi.NewWorld(c, useNB)
	maxSkew := sim.Micros(4 * avgSkewUs)
	perRank := make([]sim.Time, nodes)

	rngs := make([]*sim.RNG, nodes)
	for i := range rngs {
		rngs[i] = sim.NewRNG(o.Seed*1_000_003 + int64(i))
	}

	w.Run(func(r *mpi.Rank) {
		for i := 0; i < o.Warmup; i++ {
			r.Barrier()
		}
		var mine sim.Time
		for i := 0; i < o.SkewIters; i++ {
			r.Barrier()
			if s := rngs[r.ID()].SymmetricDuration(maxSkew); s > 0 {
				r.Proc().Compute(s)
			}
			t0 := r.Now()
			r.Barrier()
			mine += r.Now() - t0
		}
		perRank[r.ID()] = mine
	})

	var sum sim.Time
	for _, t := range perRank {
		sum += t
	}
	return sum.Micros() / float64(nodes*o.SkewIters)
}

// BarrierSkewSweep runs the skewed-barrier comparison across average
// skews for one system size — the barrier's skew-tolerance figure.
func (o Options) BarrierSkewSweep(nodes int, avgSkewsUs []float64) []SkewPoint {
	return parallelMap(o.workerCount(len(avgSkewsUs)), avgSkewsUs, func(_ int, s float64) SkewPoint {
		return SkewPoint{
			AvgSkewUs: s,
			HB:        o.BarrierSkewCPUTime(nodes, s, false),
			NB:        o.BarrierSkewCPUTime(nodes, s, true),
		}
	})
}
