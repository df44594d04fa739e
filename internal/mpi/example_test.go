package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
)

// An MPI program on the simulated cluster: with UseNB the broadcast rides
// the NIC-based multicast (the modified MPICH-GM); the program text is
// ordinary rank-parallel code.
func Example() {
	w := NewWorld(cluster.New(4), true)
	sums := make([]int64, 4)
	w.Run(func(r *Rank) {
		buf := make([]byte, 8)
		if r.ID() == 0 {
			copy(buf, []byte("motd:ok!"))
		}
		out := r.Bcast(0, buf)
		if r.ID() == 2 {
			fmt.Printf("rank 2 got %q\n", out)
		}
		sums[r.ID()] = r.AllreduceVec([]int64{1}, coll.OpSum)[0]
	})
	fmt.Printf("allreduce sum everywhere: %v\n", sums)
	// Output:
	// rank 2 got "motd:ok!"
	// allreduce sum everywhere: [4 4 4 4]
}
