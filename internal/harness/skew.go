package harness

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// SkewPoint is one measurement of Figure 6: the average host CPU time
// spent inside MPI_Bcast under a given average process skew.
type SkewPoint struct {
	AvgSkewUs float64
	HB        float64 // µs of host CPU time per broadcast
	NB        float64
}

// Factor reports the improvement factor HB/NB.
func (p SkewPoint) Factor() float64 {
	if p.NB == 0 {
		return 0
	}
	return p.HB / p.NB
}

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

// SkewSweep runs the skewed-broadcast CPU-time comparison across average
// skews for one system and message size. Points run in parallel per
// Options.Workers. (The package-level SkewSweep function is the default
// x-axis for this sweep.)
func (o Options) SkewSweep(nodes, size int, avgSkewsUs []float64) []SkewPoint {
	return parallelMap(o.workerCount(len(avgSkewsUs)), avgSkewsUs, func(_ int, s float64) SkewPoint {
		return SkewPoint{
			AvgSkewUs: s,
			HB:        o.SkewCPUTime(nodes, size, s, false),
			NB:        o.SkewCPUTime(nodes, size, s, true),
		}
	})
}

// Fig6 sweeps average skew for one message size on a 16-node system,
// reproducing one curve pair of Figures 6(a)/6(b).
func (o Options) Fig6(nodes, size int, avgSkewsUs []float64) []SkewPoint {
	return o.SkewSweep(nodes, size, avgSkewsUs)
}

// Fig7Point is one bar of Figure 7: the CPU-time improvement factor at a
// fixed 400 µs average skew for a given system size.
type Fig7Point struct {
	Nodes  int
	Size   int
	Factor float64
}

// Fig7 sweeps system sizes at 400 µs average skew, reproducing Figure 7.
// The (nodes, size) grid points run in parallel per Options.Workers.
func (o Options) Fig7(nodeCounts []int, sizes []int) []Fig7Point {
	var pts []Fig7Point
	for _, n := range nodeCounts {
		for _, s := range sizes {
			pts = append(pts, Fig7Point{Nodes: n, Size: s})
		}
	}
	return parallelMap(o.workerCount(len(pts)), pts, func(_ int, p Fig7Point) Fig7Point {
		hb := o.SkewCPUTime(p.Nodes, p.Size, 400, false)
		nb := o.SkewCPUTime(p.Nodes, p.Size, 400, true)
		p.Factor = hb / nb
		return p
	})
}

// SkewSweep returns the paper's Figure 6 x-axis: 0 to 400 µs average skew.
func SkewSweep() []float64 { return []float64{0, 50, 100, 150, 200, 250, 300, 350, 400} }
