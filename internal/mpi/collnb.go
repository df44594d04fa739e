package mpi

import (
	"fmt"
	"hash/fnv"

	"repro/internal/coll"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// NIC-offloadable typed collectives. They take int64 vectors and one of
// the enumerated operators (coll.OpSum/OpMin/OpMax), which the NIC
// collective engine computes in firmware (the LANai has no FPU, and no
// firmware can run an opaque Go function): with the world's UseNB set,
// Barrier, AllreduceVec and AllgatherVec run entirely NIC-resident, the
// hosts seeing only one request and one completion event. The engine's
// tree is rooted at the lowest node, rank 0.

// collGroupID derives the deterministic collective group identifier for a
// communicator. All members compute it locally; the "coll" salt keeps it
// out of the bcast context space (groupID).
func collGroupID(comm uint32) gm.GroupID {
	h := fnv.New32a()
	h.Write([]byte{'c', 'o', 'l', 'l', byte(comm), byte(comm >> 8), byte(comm >> 16), byte(comm >> 24)})
	id := gm.GroupID(h.Sum32())
	if id == 0 {
		id = 1
	}
	return id
}

// ensureColl creates the collective group context on first use,
// mirroring the demand-driven bcast group creation: every rank installs
// the collective entry, then a host barrier confirms every installation
// before the first NIC round can reach a NIC without an entry (which would
// cost a retransmit interval). The barrier needs nothing else; the
// tree-based collectives add the multicast tree via ensureCollTree.
func (r *Rank) ensureColl() gm.GroupID {
	if r.collGroup != 0 {
		return r.collGroup
	}
	gid := collGroupID(worldCommID)
	done := false
	var w sim.Waiter
	// The engine keeps the member list, in ID order: rank order.
	r.collEngine().Install(gid, r.nodes(), mpiPort, func() {
		done = true
		w.WakeAll()
	})
	for !done {
		w.Wait(r.proc)
	}
	r.barrierHB()
	r.collGroup = gid
	return gid
}

// ensureCollTree additionally installs the multicast tree under the
// collective group id — the data path reduce and allgather combine over
// and multicast results down. Lazy like ensureColl: a job that only ever
// barriers never populates the multicast group table.
func (r *Rank) ensureCollTree() gm.GroupID {
	gid := r.ensureColl()
	if r.collTree {
		return gid
	}
	r.installGroup(gid, tree.Binomial(r.node(0), r.nodes()))
	r.barrierHB()
	r.collTree = true
	return gid
}

func (r *Rank) collEngine() *coll.Engine {
	return coll.FromExt(r.w.C.Nodes[r.id].Ext)
}

// barrierNB is the NIC-based barrier: one host request enters, the NICs
// run every round, and a zero-byte group event reports completion —
// skewed or slow peers never stall this host in per-round sends.
func (r *Rank) barrierNB() {
	gid := r.ensureColl()
	r.collEngine().PostBarrier(r.proc, r.port, gid)
	ev := r.awaitGroup(gid)
	if len(ev.Data) != 0 {
		panic(fmt.Sprintf("mpi: data event on collective group %d during barrier", gid))
	}
}

// AllreduceVec combines equal-length int64 vectors element-wise with op
// and returns the result on every rank. Under UseNB, single-packet vectors
// reduce NIC-resident up the group's tree with the result multicast back
// down; otherwise MPICH's recursive-doubling algorithm runs on the hosts.
func (r *Rank) AllreduceVec(vec []int64, op coll.ReduceOp) []int64 {
	if r.Size() == 1 {
		return append([]int64(nil), vec...)
	}
	if r.w.UseNB && 8*len(vec) <= r.w.C.Cfg.GM.MTU {
		return r.allreduceVecNB(vec, op)
	}
	return r.allreduceVecHB(vec, op)
}

func (r *Rank) allreduceVecNB(vec []int64, op coll.ReduceOp) []int64 {
	gid := r.ensureCollTree()
	r.collEngine().PostReduce(r.proc, r.port, gid, vec, op)
	return r.collResult(gid)
}

// collResult takes a tree collective's result: the root's completion event
// carries it and the root multicasts it down the preposted tree to
// everyone else, who receive it as an eager copy.
func (r *Rank) collResult(gid gm.GroupID) []int64 {
	ev := r.awaitGroup(gid)
	res := coll.DecodeVec(ev.Data)
	if r.id == 0 {
		r.w.C.Nodes[r.id].Ext.Mcast(r.proc, r.port, gid, ev.Data)
	} else {
		r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(ev.Data)))
		r.replenish(ev) // the downward multicast consumed an eager token
	}
	return res
}

// allreduceVecHB is MPICH's host recursive doubling with the pre/post
// fold that reduces a non-power-of-two rank count to the nearest power.
// Every exchange is the whole vector, so one past EagerMax is refused
// with ErrExceedsEager.
func (r *Rank) allreduceVecHB(vec []int64, op coll.ReduceOp) []int64 {
	checkEager(8 * len(vec))
	n := r.Size()
	acc := append([]int64(nil), vec...)
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newrank := -1
	switch {
	case r.id < 2*rem && r.id%2 == 0:
		r.send(r.id+1, tagAllreduce, coll.EncodeVec(acc))
	case r.id < 2*rem:
		foldVec(acc, coll.DecodeVec(r.recv(r.id-1, tagAllreduce, nil)), op)
		newrank = r.id / 2
	default:
		newrank = r.id - rem
	}
	if newrank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			pn := newrank ^ mask
			partner := pn + rem
			if pn < rem {
				partner = pn*2 + 1
			}
			r.send(partner, tagAllreduce, coll.EncodeVec(acc))
			foldVec(acc, coll.DecodeVec(r.recv(partner, tagAllreduce, nil)), op)
		}
	}
	if r.id < 2*rem {
		if r.id%2 == 0 {
			acc = coll.DecodeVec(r.recv(r.id+1, tagAllreduce, nil))
		} else {
			r.send(r.id-1, tagAllreduce, coll.EncodeVec(acc))
		}
	}
	return acc
}

func foldVec(acc, other []int64, op coll.ReduceOp) {
	if len(other) != len(acc) {
		panic(fmt.Sprintf("mpi: allreduce vector length mismatch (%d vs %d)", len(other), len(acc)))
	}
	for i := range acc {
		acc[i] = op.Apply(acc[i], other[i])
	}
}

// AllgatherVec gathers every rank's equal-length vector and returns the
// concatenation in rank order on every rank. Under UseNB (result fitting
// the eager limit) the NICs concatenate-and-forward up the tree and
// multicast the assembled result down; otherwise the hosts run Bruck's
// algorithm, whose largest exchange (BruckLargestExchange) must fit
// EagerMax (ErrExceedsEager).
func (r *Rank) AllgatherVec(mine []int64) []int64 {
	n := r.Size()
	if n == 1 {
		return append([]int64(nil), mine...)
	}
	if r.w.UseNB && 8*n*len(mine) <= EagerMax {
		gid := r.ensureCollTree()
		r.collEngine().PostAllgather(r.proc, r.port, gid, mine)
		return r.collResult(gid)
	}
	return r.allgatherVecHB(mine)
}

// BruckLargestExchange reports the bytes of the largest exchange in Bruck's
// allgather of veclen-element vectors over n ranks: step 2^k sends
// min(2^k, n−2^k) blocks, so the largest is n/2 blocks for a power of two
// and fewer otherwise (2 for n = 5, not ⌈5/2⌉).
func BruckLargestExchange(n, veclen int) int {
	blocks := 0
	for pof2 := 1; pof2 < n; pof2 <<= 1 {
		blocks = max(blocks, min(pof2, n-pof2))
	}
	return 8 * veclen * blocks
}

// allgatherVecHB is Bruck's algorithm: ceil(log2 n) exchange steps, each
// doubling the span of collected blocks, then a rotation into rank order.
func (r *Rank) allgatherVecHB(mine []int64) []int64 {
	n := r.Size()
	veclen := len(mine)
	checkEager(BruckLargestExchange(n, veclen))
	// Collected blocks, relative order: block k is rank (id+k)%n's vector.
	buf := append(make([]int64, 0, n*veclen), mine...)
	for pof2 := 1; pof2 < n; pof2 <<= 1 {
		cnt := min(pof2, n-pof2)
		r.send((r.id-pof2+n)%n, tagAllgather, coll.EncodeVec(buf[:cnt*veclen]))
		buf = append(buf, coll.DecodeVec(r.recv((r.id+pof2)%n, tagAllgather, nil))...)
	}
	out := make([]int64, n*veclen)
	for k := 0; k < n; k++ {
		abs := (r.id + k) % n
		copy(out[abs*veclen:(abs+1)*veclen], buf[k*veclen:(k+1)*veclen])
	}
	return out
}
