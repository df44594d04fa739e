package harness

import (
	"repro/internal/mpi"
	"repro/internal/stats"
)

// ackTag is the user-level tag the designated rank replies on.
const ackTag int32 = 1

// mpiBcastOnce measures MPI_Bcast latency with one designated rank
// returning an application-level acknowledgment to the root.
func (o Options) mpiBcastOnce(nodes, size int, useNB bool, designated int) float64 {
	c := o.build(nodes)
	w := mpi.NewWorld(c, useNB)
	total := o.Warmup + o.Iters
	msg := payload(size)
	var avg float64
	w.Run(func(r *mpi.Rank) {
		buf := make([]byte, size)
		if r.ID() == 0 {
			copy(buf, msg)
		}
		if r.ID() == 0 {
			iter := func() {
				r.Bcast(0, buf)
				r.Recv(designated, ackTag)
			}
			for i := 0; i < o.Warmup; i++ {
				iter()
			}
			t0 := r.Now()
			for i := 0; i < o.Iters; i++ {
				iter()
			}
			avg = (r.Now() - t0).Micros() / float64(o.Iters)
			return
		}
		for i := 0; i < total; i++ {
			r.Bcast(0, buf)
			if r.ID() == designated {
				r.Send(0, ackTag, ack1)
			}
		}
	})
	return avg
}

// MPIBcast takes the maximum over designated-rank choices, the paper's
// Figure 4 protocol ("the maximum latency obtained was taken as the
// broadcast latency").
func (o Options) MPIBcast(nodes, size int, useNB bool) float64 {
	var worst []float64
	for d := 1; d < nodes; d++ {
		worst = append(worst, o.mpiBcastOnce(nodes, size, useNB, d))
	}
	return stats.Max(worst)
}

// MPISweep runs the MPI-level broadcast comparison across message sizes
// for one system size, capping each size at the largest eager message
// (16,287 bytes) as the paper does. Points run in parallel per
// Options.Workers.
func (o Options) MPISweep(nodes int, sizes []int) Series {
	return Series(parallelMap(o.workerCount(len(sizes)), sizes, func(_, s int) Point {
		if s > mpi.EagerMax {
			s = mpi.EagerMax
		}
		return Point{
			Size: s,
			HB:   o.MPIBcast(nodes, s, false),
			NB:   o.MPIBcast(nodes, s, true),
		}
	}))
}

// Fig4 sweeps the MPI-level broadcast comparison over message sizes for
// one system size, reproducing one curve pair of Figures 4(a)/4(b).
func (o Options) Fig4(nodes int, sizes []int) Series {
	return o.MPISweep(nodes, sizes)
}

// MPISizes returns the paper's Figure 4 sweep: powers of two up to 8 KB,
// then the 16,287-byte largest eager message.
func MPISizes() []int {
	sizes := MessageSizes(8192)
	return append(sizes, mpi.EagerMax)
}
