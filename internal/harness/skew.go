package harness

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// SkewCPUTime measures the average host CPU time of MPI_Bcast with random
// process skew, reproducing the paper's protocol: all processes
// synchronize with MPI_Barrier; every non-root process draws a skew
// uniformly between the negative and positive half of a maximum value;
// processes with positive skew compute for that long before calling
// MPI_Bcast; the time spent performing MPI_Bcast is averaged over
// processes and iterations. avgSkewUs is the mean absolute skew, so the
// maximum value is four times it (E|U(-M/2, M/2)| = M/4).
//
// Skew draws come from per-rank generators seeded independently of the
// protocol under test, so the HB and NB runs see identical skew patterns.
func (o Options) SkewCPUTime(nodes, size int, avgSkewUs float64, useNB bool) float64 {
	c := o.build(nodes)
	w := mpi.NewWorld(c, useNB)
	maxSkew := sim.Micros(4 * avgSkewUs)
	msg := payload(size)

	rngs := make([]*sim.RNG, nodes)
	for i := range rngs {
		rngs[i] = sim.NewRNG(o.Seed*1_000_003 + int64(i))
	}

	var totalCPU sim.Time
	samples := 0
	w.Run(func(r *mpi.Rank) {
		buf := make([]byte, size)
		if r.ID() == 0 {
			copy(buf, msg)
		}
		for i := 0; i < o.Warmup; i++ {
			r.Barrier()
			r.Bcast(0, buf)
		}
		for i := 0; i < o.SkewIters; i++ {
			r.Barrier()
			if r.ID() != 0 {
				if s := rngs[r.ID()].SymmetricDuration(maxSkew); s > 0 {
					r.Proc().Compute(s)
				}
			}
			t0 := r.Now()
			r.Bcast(0, buf)
			totalCPU += r.Now() - t0
			samples++
		}
	})
	return totalCPU.Micros() / float64(samples)
}

// SkewSweep returns the paper's Figure 6 x-axis: 0 to 400 µs average skew.
// Figure 7 fixes the skew at its end, 400 µs.
func SkewSweep() []float64 { return []float64{0, 50, 100, 150, 200, 250, 300, 350, 400} }
