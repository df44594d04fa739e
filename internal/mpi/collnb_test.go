package mpi

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
)

// wantAllreduceSum is the element-wise sum of every rank's rankVec.
func wantAllreduceSum(nodes, veclen int) []int64 {
	out := make([]int64, veclen)
	for i := 0; i < nodes; i++ {
		for j := 0; j < veclen; j++ {
			out[j] += int64(100*i + j)
		}
	}
	return out
}

func rankVec(id, veclen int) []int64 {
	v := make([]int64, veclen)
	for j := range v {
		v[j] = int64(100*id + j)
	}
	return v
}

func TestAllreduceVecBothPaths(t *testing.T) {
	for name, useNB := range map[string]bool{"nic": true, "host": false} {
		t.Run(name, func(t *testing.T) {
			const nodes, veclen = 7, 3 // non-power-of-two exercises the host pre/post fold
			w := newWorld(t, nodes, useNB)
			results := make([][]int64, nodes)
			w.Run(func(r *Rank) {
				results[r.ID()] = r.AllreduceVec(rankVec(r.ID(), veclen), coll.OpSum)
			})
			want := wantAllreduceSum(nodes, veclen)
			for i, res := range results {
				if len(res) != veclen {
					t.Fatalf("rank %d got %d elements, want %d", i, len(res), veclen)
				}
				for j := range want {
					if res[j] != want[j] {
						t.Fatalf("rank %d allreduce[%d] = %d, want %d", i, j, res[j], want[j])
					}
				}
			}
		})
	}
}

func TestAllreduceVecMinMax(t *testing.T) {
	const nodes = 5
	for _, tc := range []struct {
		op   coll.ReduceOp
		want int64
	}{{coll.OpMin, 0}, {coll.OpMax, int64(100 * (nodes - 1))}} {
		w := newWorld(t, nodes, true)
		results := make([][]int64, nodes)
		w.Run(func(r *Rank) {
			results[r.ID()] = r.AllreduceVec([]int64{int64(100 * r.ID())}, tc.op)
		})
		for i, res := range results {
			if len(res) != 1 || res[0] != tc.want {
				t.Fatalf("rank %d op %v = %v, want [%d]", i, tc.op, res, tc.want)
			}
		}
	}
}

// The rooted half of the NIC allreduce: the engine's reduce up the
// collective tree completes at rank 0 with the result, and only rank 0
// holds one.
func TestReduceVecBothPaths(t *testing.T) {
	t.Run("nic", func(t *testing.T) {
		const nodes, veclen = 6, 2
		w := newWorld(t, nodes, true)
		results := make([][]int64, nodes)
		w.Run(func(r *Rank) {
			gid := r.ensureCollTree()
			r.collEngine().PostReduce(r.proc, r.port, gid, rankVec(r.ID(), veclen), coll.OpSum)
			if r.ID() == 0 {
				results[0] = coll.DecodeVec(r.awaitGroup(gid).Data)
			}
		})
		want := wantAllreduceSum(nodes, veclen)
		if len(results[0]) != veclen {
			t.Fatalf("root reduce has %d elements, want %d", len(results[0]), veclen)
		}
		for j := range want {
			if results[0][j] != want[j] {
				t.Fatalf("root reduce[%d] = %d, want %d", j, results[0][j], want[j])
			}
		}
		for i := 1; i < nodes; i++ {
			if results[i] != nil {
				t.Fatalf("non-root %d got a reduce result", i)
			}
		}
	})
}

func TestAllreduceVecLargeFallsBackToHost(t *testing.T) {
	// A vector past one packet must take the host path on both worlds and
	// still be correct: 600*8 = 4800 bytes is more than the 4096-byte MTU
	// the NIC reduce carries, and within EagerMax for recursive doubling.
	const nodes, veclen = 5, 600
	for _, useNB := range []bool{false, true} {
		w := newWorld(t, nodes, useNB)
		results := make([][]int64, nodes)
		w.Run(func(r *Rank) {
			results[r.ID()] = r.AllreduceVec(rankVec(r.ID(), veclen), coll.OpSum)
		})
		want := wantAllreduceSum(nodes, veclen)
		for i, res := range results {
			if len(res) != veclen || res[0] != want[0] || res[veclen-1] != want[veclen-1] {
				t.Fatalf("NB=%v: rank %d large allreduce corrupted", useNB, i)
			}
		}
		if useNB {
			for _, n := range w.C.Nodes {
				if n.Coll.Groups() != 0 {
					t.Fatalf("node %v made a collective entry for a multi-packet vector", n.ID)
				}
			}
		}
	}
}

func TestAllgatherVecBothPaths(t *testing.T) {
	for name, useNB := range map[string]bool{"nic": true, "host": false} {
		t.Run(name, func(t *testing.T) {
			const nodes, veclen = 6, 3
			w := newWorld(t, nodes, useNB)
			results := make([][]int64, nodes)
			w.Run(func(r *Rank) {
				results[r.ID()] = r.AllgatherVec(rankVec(r.ID(), veclen))
			})
			for i, res := range results {
				if len(res) != nodes*veclen {
					t.Fatalf("rank %d got %d elements, want %d", i, len(res), nodes*veclen)
				}
				for m := 0; m < nodes; m++ {
					for j := 0; j < veclen; j++ {
						if res[m*veclen+j] != int64(100*m+j) {
							t.Fatalf("rank %d allgather[%d,%d] = %d, want %d", i, m, j, res[m*veclen+j], 100*m+j)
						}
					}
				}
			}
		})
	}
}

func TestAllgatherVecLargeFallsBackToHost(t *testing.T) {
	// A result past the eager limit must take the host path and still be
	// correct: 4*600*8 = 19200 bytes is too large for the NIC path, and
	// Bruck's largest exchange, 2*600*8 = 9600 bytes, fits.
	const nodes, veclen = 4, 600
	w := newWorld(t, nodes, true)
	results := make([][]int64, nodes)
	w.Run(func(r *Rank) {
		results[r.ID()] = r.AllgatherVec(rankVec(r.ID(), veclen))
	})
	for i, res := range results {
		if len(res) != nodes*veclen {
			t.Fatalf("rank %d got %d elements", i, len(res))
		}
		for m := 0; m < nodes; m++ {
			if res[m*veclen] != int64(100*m) || res[(m+1)*veclen-1] != int64(100*m+veclen-1) {
				t.Fatalf("rank %d block %d corrupted", i, m)
			}
		}
	}
}

// Bruck's largest exchange is n/2 vectors for a power of two but fewer
// otherwise, so a size that fits runs: 5 ranks of veclen 700 exchange at
// most 2 vectors (11 200 bytes), under EagerMax, though ⌈5/2⌉ = 3 vectors
// would not be.
func TestAllgatherVecBruckNonPowerOfTwo(t *testing.T) {
	for n := 2; n <= 4096; n <<= 1 {
		if got, want := BruckLargestExchange(n, 3), 8*3*(n/2); got != want {
			t.Errorf("%d ranks: largest exchange %d bytes, want %d", n, got, want)
		}
	}
	const nodes, veclen = 5, 700
	if got := BruckLargestExchange(nodes, veclen); got != 8*veclen*2 {
		t.Fatalf("%d ranks: largest exchange %d bytes, want %d", nodes, got, 8*veclen*2)
	}
	w := newWorld(t, nodes, true)
	results := make([][]int64, nodes)
	w.Run(func(r *Rank) {
		results[r.ID()] = r.AllgatherVec(rankVec(r.ID(), veclen))
	})
	for i, res := range results {
		if len(res) != nodes*veclen {
			t.Fatalf("rank %d got %d elements", i, len(res))
		}
		for m := 0; m < nodes; m++ {
			if res[m*veclen] != int64(100*m) || res[(m+1)*veclen-1] != int64(100*m+veclen-1) {
				t.Fatalf("rank %d block %d corrupted", i, m)
			}
		}
	}
}

func TestNBBarrierRepeated(t *testing.T) {
	// Repeated NIC barriers with skewed ranks must all complete; the first
	// creates the collective context on demand.
	const nodes, rounds = 8, 5
	w := newWorld(t, nodes, true)
	counts := make([]int, nodes)
	w.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			r.Proc().Compute(sim.Micros(float64(100 * (r.ID() % 3))))
			r.Barrier()
			counts[r.ID()]++
		}
	})
	for i, got := range counts {
		if got != rounds {
			t.Fatalf("rank %d completed %d/%d NIC barriers", i, got, rounds)
		}
	}
	// Barrier-only workload: the multicast group table must stay empty
	// (the collective entry lives in the coll engine's own table).
	for _, n := range w.C.Nodes {
		if n.Ext.Groups() != 0 {
			t.Fatalf("node %v grew %d multicast groups from barriers alone", n.ID, n.Ext.Groups())
		}
		if n.Coll.Groups() != 1 {
			t.Fatalf("node %v has %d collective entries, want 1", n.ID, n.Coll.Groups())
		}
	}
}
