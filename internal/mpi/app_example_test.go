package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The paper's future work extends the NIC-based multicast to other
// collectives: Barrier, Allreduce and Allgather run on the NIC collective
// engine, against the host-based algorithms.
func Example_collectives() {
	const ranks = 12
	for _, useNB := range []bool{false, true} {
		w := mpi.NewWorld(cluster.New(ranks), useNB)
		var sum int64
		var all []int64
		var elapsed sim.Time
		w.Run(func(r *mpi.Rank) {
			// The collective group is created on first use, as the
			// broadcast groups are; warm it first, as the paper's warm-up
			// iterations do.
			r.AllreduceVec([]int64{0}, coll.OpSum)
			r.Barrier()

			t0 := r.Now()
			s := r.AllreduceVec([]int64{int64(r.ID() + 1)}, coll.OpSum)
			g := r.AllgatherVec([]int64{int64(r.ID()), 0xEE})
			r.Barrier()
			if r.ID() == 0 {
				sum, all, elapsed = s[0], g, r.Now()-t0
			}
		})
		for i := range ranks {
			if all[2*i] != int64(i) {
				panic("allgather corrupted")
			}
		}
		name := map[bool]string{false: "host-based", true: "NIC-based"}[useNB]
		fmt.Printf("%-10s: allreduce sum = %d, wall time %8.2fµs\n", name, sum, elapsed.Micros())
	}
	// Output:
	// host-based: allreduce sum = 78, wall time   156.73µs
	// NIC-based : allreduce sum = 78, wall time    97.30µs
}

// A parallel application on the simulated cluster: the explicit 1-D heat
// equation, domain-decomposed across 16 ranks with a halo exchange, a
// broadcast of the run parameters, a periodic Allreduce for a global
// check and an Allgather of the final field. The same program runs on
// stock (host-based) and modified (NIC-based multicast) MPICH-GM, and
// matches a serial run.
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
			left, right := r.ID() > 0, r.ID() < ranks-1
			t0 := r.Now()
			for s := range nsteps {
				// Halo exchange with both neighbours: an eager send never
				// waits for its receiver, so every rank sends, then receives.
				if left {
					r.Send(r.ID()-1, 1, put(make([]byte, 8), cur[1]))
				}
				if right {
					r.Send(r.ID()+1, 1, put(make([]byte, 8), cur[cells]))
				}
				cur[0], cur[cells+1] = 0, 0
				if left {
					cur[0] = f64(r.Recv(r.ID()-1, 1))
				}
				if right {
					cur[cells+1] = f64(r.Recv(r.ID()+1, 1))
				}
				for i := 1; i <= cells; i++ {
					nxt[i] = cur[i] + a*(cur[i-1]-2*cur[i]+cur[i+1])
				}
				cur, nxt = nxt, cur
				// The periodic global check, the peak temperature: heat is
				// never negative, and non-negative float64s order as their
				// bit patterns do, so the NIC's integer max finds it.
				if s%check == check-1 {
					peak := 0.0
					for _, v := range cur[1 : cells+1] {
						peak = max(peak, v)
					}
					r.AllreduceVec([]int64{int64(math.Float64bits(peak))}, coll.OpMax)
				}
			}
			if r.ID() == 0 {
				elapsed = r.Now() - t0
			}
			// Gather the field, bit for bit, to check it.
			mine := make([]int64, cells)
			for i := range cells {
				mine[i] = int64(math.Float64bits(cur[i+1]))
			}
			if all := r.AllgatherVec(mine); r.ID() == 0 {
				for i, bits := range all {
					final[i] = math.Float64frombits(uint64(bits))
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
	// host-based broadcast:  wall    5075.8µs   max deviation from serial 0.00e+00
	// NIC-based multicast:   wall    3830.3µs   max deviation from serial 0.00e+00
}
