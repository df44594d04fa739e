package harness

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Collective scaling experiment — the collective-engine counterpart of the
// broadcast LastDelivery: the average completion latency of MPI_Barrier,
// MPI_Allreduce and MPI_Allgather in their traditional host-based forms
// versus the NIC-resident collective engine, across system sizes up to
// thousands of hosts. Both variants ride the full MPI layer, so the
// comparison includes every host-side cost the paper's methodology counts.

// CollNames lists the collectives the scaling sweep measures.
var CollNames = []string{"barrier", "allreduce", "allgather"}

// AllgatherNICEligible reports whether the MPI layer's NIC allgather path
// applies at this system size: the flat result must fit one eager-mode
// receive buffer to ride the preposted token pool down the multicast tree.
func AllgatherNICEligible(nodes, veclen int) bool {
	return 8*nodes*veclen <= mpi.EagerMax
}

// CollFits reports whether the MPI layer accepts one of CollNames at this
// size, or why not: the host-based allreduce exchanges the whole vector,
// and the host-based allgather (which a NIC-ineligible size also takes)
// exchanges mpi.BruckLargestExchange bytes at most; either past
// mpi.EagerMax is mpi.ErrExceedsEager.
func CollFits(collective string, nodes, veclen int) error {
	var largest int
	switch collective {
	case "allreduce":
		largest = 8 * veclen
	case "allgather":
		largest = mpi.BruckLargestExchange(nodes, veclen)
	}
	if largest > mpi.EagerMax {
		return fmt.Errorf("%w: %s of veclen %d on %d nodes exchanges %d bytes, limit %d",
			mpi.ErrExceedsEager, collective, veclen, nodes, largest, mpi.EagerMax)
	}
	return nil
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
	if err := CollFits(collective, nodes, veclen); err != nil {
		panic(err)
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
