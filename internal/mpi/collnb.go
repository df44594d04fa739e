package mpi

import (
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// NIC-offloadable typed collectives. The float64-closure forms (Allreduce,
// Reduce) take an opaque Go function, which no firmware can execute —
// and the LANai has no FPU regardless — so they are host-only forever.
// The *Vec forms below take int64 vectors and one of the enumerated
// operators (coll.OpSum/OpMin/OpMax), which the NIC collective engine
// computes in firmware: with the world's UseNB set, Barrier, AllreduceVec,
// ReduceVec and AllgatherVec run entirely NIC-resident, the hosts seeing
// only one request and one completion event.

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

// minMemberRank is the communicator rank holding the smallest world rank —
// the root of the collective group's tree (the coll engine and
// tree.Binomial both root at the lowest node ID).
func (c *Comm) minMemberRank() int {
	best := 0
	for i, m := range c.members {
		if m < c.members[best] {
			best = i
		}
	}
	return best
}

// ensureColl creates the communicator's collective group context on first
// use, mirroring the demand-driven bcast group creation: every member
// installs the collective entry, then a host barrier confirms every
// installation before the first NIC round can reach a NIC without an
// entry (which would cost a retransmit interval). The barrier needs
// nothing else; the tree-based collectives add the multicast tree via
// ensureCollTree.
func (c *Comm) ensureColl() gm.GroupID {
	r := c.r
	if gid, ok := r.collGroups[c.id]; ok {
		return gid
	}
	gid := collGroupID(c.id)
	r.installColl(gid, c.nodes())
	c.barrierHB()
	r.collGroups[c.id] = gid
	return gid
}

// ensureCollTree additionally installs the communicator's multicast tree
// under the collective group id — the data path reduce and allgather
// combine over and multicast results down. Lazy like ensureColl: a
// communicator that only ever barriers never populates the multicast
// group table.
func (c *Comm) ensureCollTree() gm.GroupID {
	gid := c.ensureColl()
	r := c.r
	if r.collTrees[c.id] {
		return gid
	}
	root := c.nodes()[c.minMemberRank()]
	r.installGroup(gid, tree.Binomial(root, c.nodes()))
	c.barrierHB()
	r.collTrees[c.id] = true
	return gid
}

// installColl preposts the collective group entry into the local NIC and
// blocks until the firmware confirms it. nodes is this call's own copy, in
// communicator rank order; the engine wants (and keeps) it in ID order.
func (r *Rank) installColl(gid gm.GroupID, nodes []fabric.NodeID) {
	slices.Sort(nodes)
	eng := coll.FromExt(r.w.C.Nodes[r.id].Ext)
	done := false
	var w sim.Waiter
	eng.Install(gid, nodes, mpiPort, func() {
		done = true
		w.WakeAll()
	})
	for !done {
		w.Wait(r.proc)
	}
}

func (r *Rank) collEngine() *coll.Engine {
	return coll.FromExt(r.w.C.Nodes[r.id].Ext)
}

// barrierNB is the NIC-based barrier: one host request enters, the NICs
// run every round, and a zero-byte group event reports completion —
// skewed or slow peers never stall this host in per-round sends.
func (c *Comm) barrierNB() {
	gid := c.ensureColl()
	r := c.r
	r.collEngine().PostBarrier(r.proc, r.port, gid)
	ev := r.awaitGroup(gid)
	if len(ev.Data) != 0 {
		panic(fmt.Sprintf("mpi: data event on collective group %d during barrier", gid))
	}
}

// AllreduceVec combines equal-length int64 vectors element-wise with op
// and returns the result on every member. Under UseNB, single-packet
// vectors reduce NIC-resident up the group's tree with the result
// multicast back down; otherwise MPICH's recursive-doubling algorithm
// runs on the hosts.
func (c *Comm) AllreduceVec(vec []int64, op coll.ReduceOp) []int64 {
	if c.Size() == 1 {
		return append([]int64(nil), vec...)
	}
	if c.r.w.UseNB && 8*len(vec) <= c.r.w.C.Cfg.GM.MTU {
		return c.allreduceVecNB(vec, op)
	}
	return c.allreduceVecHB(vec, op)
}

func (c *Comm) allreduceVecNB(vec []int64, op coll.ReduceOp) []int64 {
	gid := c.ensureCollTree()
	r := c.r
	r.collEngine().PostReduce(r.proc, r.port, gid, vec, op)
	ev := r.awaitGroup(gid)
	res := coll.DecodeVec(ev.Data)
	if c.my == c.minMemberRank() {
		// The combined vector arrived as this root's completion event;
		// multicast it down the preposted tree to everyone else.
		r.w.C.Nodes[r.id].Ext.Mcast(r.proc, r.port, gid, ev.Data)
	} else {
		r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(ev.Data)))
		r.replenish(ev) // the downward multicast consumed an eager token
	}
	return res
}

// allreduceVecHB is MPICH's host recursive doubling with the pre/post
// fold that reduces a non-power-of-two member count to the nearest power
// (large vectors fold to the tree root and broadcast instead, keeping
// every exchange acyclic under the rendezvous protocol).
func (c *Comm) allreduceVecHB(vec []int64, op coll.ReduceOp) []int64 {
	n := c.Size()
	if 8*len(vec) > EagerMax {
		root := c.minMemberRank()
		acc := c.ReduceVec(root, vec, op)
		if acc == nil {
			acc = make([]int64, len(vec))
		}
		return coll.DecodeVec(c.Bcast(root, coll.EncodeVec(acc)))
	}
	acc := append([]int64(nil), vec...)
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newrank := -1
	switch {
	case c.my < 2*rem && c.my%2 == 0:
		c.r.send(c.id, c.members[c.my+1], tagAllreduce, coll.EncodeVec(acc))
	case c.my < 2*rem:
		foldVec(acc, coll.DecodeVec(c.r.recv(c.id, c.members[c.my-1], tagAllreduce, nil)), op)
		newrank = c.my / 2
	default:
		newrank = c.my - rem
	}
	if newrank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			pn := newrank ^ mask
			partner := pn + rem
			if pn < rem {
				partner = pn*2 + 1
			}
			c.r.send(c.id, c.members[partner], tagAllreduce, coll.EncodeVec(acc))
			foldVec(acc, coll.DecodeVec(c.r.recv(c.id, c.members[partner], tagAllreduce, nil)), op)
		}
	}
	if c.my < 2*rem {
		if c.my%2 == 0 {
			acc = coll.DecodeVec(c.r.recv(c.id, c.members[c.my+1], tagAllreduce, nil))
		} else {
			c.r.send(c.id, c.members[c.my-1], tagAllreduce, coll.EncodeVec(acc))
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

// ReduceVec combines vectors at communicator rank root, which alone
// returns the result (others return nil). The NIC path applies when the
// root is the collective tree's root (the lowest-world-rank member) and
// the vector fits one packet; otherwise a host binomial tree runs.
func (c *Comm) ReduceVec(root int, vec []int64, op coll.ReduceOp) []int64 {
	if c.Size() == 1 {
		return append([]int64(nil), vec...)
	}
	if c.r.w.UseNB && root == c.minMemberRank() && 8*len(vec) <= c.r.w.C.Cfg.GM.MTU {
		gid := c.ensureCollTree()
		r := c.r
		r.collEngine().PostReduce(r.proc, r.port, gid, vec, op)
		if c.my != root {
			return nil // contribution posted; the NICs do the rest
		}
		return coll.DecodeVec(r.awaitGroup(gid).Data)
	}
	return c.reduceVecHB(root, vec, op)
}

func (c *Comm) reduceVecHB(root int, vec []int64, op coll.ReduceOp) []int64 {
	n := c.Size()
	rel := (c.my - root + n) % n
	acc := append([]int64(nil), vec...)
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (c.my - mask + n) % n
			c.r.send(c.id, c.members[parent], tagAllreduce, coll.EncodeVec(acc))
			return nil
		}
		if rel+mask < n {
			child := (c.my + mask) % n
			foldVec(acc, coll.DecodeVec(c.r.recv(c.id, c.members[child], tagAllreduce, nil)), op)
		}
		mask <<= 1
	}
	return acc
}

// AllgatherVec gathers every member's equal-length vector and returns the
// concatenation in communicator-rank order on every member. Under UseNB
// (result fitting the eager limit) the NICs concatenate-and-forward up
// the tree and multicast the assembled result down; otherwise the hosts
// run Bruck's algorithm (or, for rendezvous-sized results, a gather plus
// broadcast).
func (c *Comm) AllgatherVec(mine []int64) []int64 {
	n := c.Size()
	if n == 1 {
		return append([]int64(nil), mine...)
	}
	if c.r.w.UseNB && 8*n*len(mine) <= EagerMax {
		return c.allgatherVecNB(mine)
	}
	return c.allgatherVecHB(mine)
}

func (c *Comm) allgatherVecNB(mine []int64) []int64 {
	gid := c.ensureCollTree()
	r := c.r
	r.collEngine().PostAllgather(r.proc, r.port, gid, mine)
	ev := r.awaitGroup(gid)
	res := c.fromSorted(coll.DecodeVec(ev.Data), len(mine))
	if c.my == c.minMemberRank() {
		r.w.C.Nodes[r.id].Ext.Mcast(r.proc, r.port, gid, ev.Data)
	} else {
		r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(ev.Data)))
		r.replenish(ev)
	}
	return res
}

// fromSorted reorders the engine's flat result (sorted-node order) into
// communicator-rank order. For the common ascending-member communicator
// the two orders coincide and the vector is returned as-is.
func (c *Comm) fromSorted(flat []int64, veclen int) []int64 {
	ascending := true
	for i := 1; i < len(c.members); i++ {
		if c.members[i] < c.members[i-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return flat
	}
	// sortedPos[i] = position of member i in the sorted member set.
	out := make([]int64, len(flat))
	for i, m := range c.members {
		pos := 0
		for _, o := range c.members {
			if o < m {
				pos++
			}
		}
		copy(out[i*veclen:(i+1)*veclen], flat[pos*veclen:(pos+1)*veclen])
	}
	return out
}

// allgatherVecHB is Bruck's algorithm: ceil(log2 n) exchange steps, each
// doubling the span of collected blocks, then a rotation into rank order.
// Rendezvous-sized transfers fall back to gather+broadcast, whose
// exchanges are acyclic (Bruck's ring of simultaneous sends would
// deadlock blocking rendezvous handshakes).
func (c *Comm) allgatherVecHB(mine []int64) []int64 {
	n := c.Size()
	veclen := len(mine)
	if 8*veclen*((n+1)/2) > EagerMax {
		root := 0
		parts := c.Gather(root, coll.EncodeVec(mine))
		var blob []byte
		if c.my == root {
			for _, p := range parts {
				blob = append(blob, p...)
			}
		} else {
			blob = make([]byte, 8*veclen*n)
		}
		return coll.DecodeVec(c.Bcast(root, blob))
	}
	// Collected blocks, relative order: block k is rank (my+k)%n's vector.
	buf := append(make([]int64, 0, n*veclen), mine...)
	for pof2 := 1; pof2 < n; pof2 <<= 1 {
		cnt := pof2
		if n-pof2 < cnt {
			cnt = n - pof2
		}
		dst := (c.my - pof2 + n) % n
		src := (c.my + pof2) % n
		c.r.send(c.id, c.members[dst], tagAllgather, coll.EncodeVec(buf[:cnt*veclen]))
		buf = append(buf, coll.DecodeVec(c.r.recv(c.id, c.members[src], tagAllgather, nil))...)
	}
	out := make([]int64, n*veclen)
	for k := 0; k < n; k++ {
		abs := (c.my + k) % n
		copy(out[abs*veclen:(abs+1)*veclen], buf[k*veclen:(k+1)*veclen])
	}
	return out
}

// World-communicator conveniences.
func (r *Rank) AllreduceVec(vec []int64, op coll.ReduceOp) []int64 {
	return r.World().AllreduceVec(vec, op)
}
func (r *Rank) ReduceVec(root int, vec []int64, op coll.ReduceOp) []int64 {
	return r.World().ReduceVec(root, vec, op)
}
func (r *Rank) AllgatherVec(mine []int64) []int64 { return r.World().AllgatherVec(mine) }
