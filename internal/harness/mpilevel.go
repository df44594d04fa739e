package harness

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
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
			avg = o.timed(r.Proc(), func() {
				r.Bcast(0, buf)
				r.Recv(designated, ackTag)
			})
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

// MPIBcast is MPI_Bcast's latency, the worst over every non-root rank as
// designated receiver — the paper's Figure 4 protocol ("the maximum
// latency obtained was taken as the broadcast latency").
func (o Options) MPIBcast(nodes, size int, useNB bool) float64 {
	return worst(membersOf(nodes)[1:], func(d fabric.NodeID) float64 { return o.mpiBcastOnce(nodes, size, useNB, int(d)) })
}

// MPISizes returns the paper's Figure 4 sweep: powers of two up to 8 KB,
// then the 16,287-byte largest eager message.
func MPISizes() []int {
	sizes := MessageSizes(8192)
	return append(sizes, mpi.EagerMax)
}
