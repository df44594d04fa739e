package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The paper's future work extends the NIC-based multicast to other
// collectives: Allreduce and All-to-all broadcast built on the NIC-based
// MPI_Bcast, against the host-based build.
func Example_collectives() {
	const ranks = 12
	for _, useNB := range []bool{false, true} {
		w := mpi.NewWorld(cluster.New(ranks), useNB)
		var sum float64
		var elapsed sim.Time
		w.Run(func(r *mpi.Rank) {
			// Group creation is demand-driven ("the first broadcast
			// operation for any group will pay the cost of creating group
			// membership"), so warm every root's group first, as the
			// paper's warm-up iterations do.
			r.Barrier()
			r.Bcast(0, make([]byte, 8))   // Allreduce's broadcast leg
			r.AlltoallBcast([]byte{0, 0}) // the timed round's size class
			r.Barrier()

			t0 := r.Now()
			s := r.Allreduce(float64(r.ID()+1), func(a, b float64) float64 { return a + b })
			all := r.AlltoallBcast([]byte{byte(r.ID()), 0xEE})
			r.Barrier()
			if r.ID() == 0 {
				sum, elapsed = s, r.Now()-t0
				for i, buf := range all {
					if int(buf[0]) != i {
						panic("alltoall corrupted")
					}
				}
			}
		})
		name := map[bool]string{false: "host-based", true: "NIC-based"}[useNB]
		fmt.Printf("%-10s: allreduce sum = %v, wall time %8.2fµs\n", name, sum, elapsed.Micros())
	}
	// Output:
	// host-based: allreduce sum = 78, wall time   390.48µs
	// NIC-based : allreduce sum = 78, wall time   229.81µs
}

// A parallel application on the simulated cluster: the explicit 1-D heat
// equation, domain-decomposed across 16 ranks with nonblocking halo
// exchange, a broadcast of the run parameters and a periodic Allreduce
// for the convergence check. The same program runs on stock (host-based)
// and modified (NIC-based multicast) MPICH-GM, and matches a serial run.
func Example_heatDiffusion() {
	const (
		ranks, cells = 16, 64 // cells per rank
		steps, check = 200, 20
		alpha        = 0.1
	)
	initial := func(global int) float64 { // a hot spike mid-domain
		if global == ranks*cells/2 {
			return 100
		}
		return 0
	}
	f64 := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	put := func(b []byte, v float64) []byte {
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		return b
	}

	serial := make([]float64, ranks*cells+2) // zero boundary cells at both ends
	for i := range ranks * cells {
		serial[i+1] = initial(i)
	}
	next := make([]float64, len(serial))
	for range steps {
		for i := 1; i <= ranks*cells; i++ {
			next[i] = serial[i] + alpha*(serial[i-1]-2*serial[i]+serial[i+1])
		}
		serial, next = next, serial
	}

	for _, useNB := range []bool{false, true} {
		w := mpi.NewWorld(cluster.New(ranks), useNB)
		final := make([]float64, ranks*cells)
		var elapsed sim.Time
		w.Run(func(r *mpi.Rank) {
			// The root distributes the run parameters, as a real app would
			// its configuration.
			params := make([]byte, 16)
			if r.ID() == 0 {
				put(params, alpha)
				binary.LittleEndian.PutUint64(params[8:], steps)
			}
			params = r.Bcast(0, params)
			a, nsteps := f64(params), int(binary.LittleEndian.Uint64(params[8:]))

			cur := make([]float64, cells+2) // halo cells at [0] and [cells+1]
			nxt := make([]float64, cells+2)
			for i := range cells {
				cur[i+1] = initial(r.ID()*cells + i)
			}
			t0 := r.Now()
			for s := range nsteps {
				// Nonblocking halo exchange with both neighbours.
				var left, right [2]*mpi.Request
				if r.ID() > 0 {
					left = [2]*mpi.Request{r.Isend(r.ID()-1, 1, put(make([]byte, 8), cur[1])), r.Irecv(r.ID()-1, 1)}
				}
				if r.ID() < ranks-1 {
					right = [2]*mpi.Request{r.Isend(r.ID()+1, 1, put(make([]byte, 8), cur[cells])), r.Irecv(r.ID()+1, 1)}
				}
				cur[0], cur[cells+1] = 0, 0
				if left[0] != nil {
					left[0].Wait()
					cur[0] = f64(left[1].Wait())
				}
				if right[0] != nil {
					right[0].Wait()
					cur[cells+1] = f64(right[1].Wait())
				}
				for i := 1; i <= cells; i++ {
					nxt[i] = cur[i] + a*(cur[i-1]-2*cur[i]+cur[i+1])
				}
				cur, nxt = nxt, cur
				// The periodic global check: total heat is conserved.
				if s%check == check-1 {
					local := 0.0
					for _, v := range cur[1 : cells+1] {
						local += v
					}
					r.Allreduce(local, func(x, y float64) float64 { return x + y })
				}
			}
			if r.ID() == 0 {
				elapsed = r.Now() - t0
			}
			// Gather the field at rank 0 to check it.
			mine := make([]byte, 8*cells)
			for i := range cells {
				put(mine[8*i:], cur[i+1])
			}
			if parts := r.Gather(0, mine); r.ID() == 0 {
				for rank, part := range parts {
					for i := range cells {
						final[rank*cells+i] = f64(part[8*i:])
					}
				}
			}
		})
		maxErr := 0.0
		for i, v := range final {
			maxErr = max(maxErr, math.Abs(serial[i+1]-v))
		}
		name := map[bool]string{false: "host-based broadcast:", true: "NIC-based multicast:"}[useNB]
		fmt.Printf("%-22s wall %9.1fµs   max deviation from serial %.2e\n", name, elapsed.Micros(), maxErr)
	}
	// Output:
	// host-based broadcast:  wall    5460.7µs   max deviation from serial 0.00e+00
	// NIC-based multicast:   wall    3954.9µs   max deviation from serial 0.00e+00
}
