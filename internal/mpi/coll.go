package mpi

import (
	"math/bits"

	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Bcast broadcasts data from rank root to every rank. The buffer is
// in/out, as MPI_Bcast's is: the root's is sent, every other rank's is
// overwritten with the root's message and returned. Every rank must pass a
// same-length buffer (MPI_Bcast's consistent count); one that differs
// panics with ErrCountMismatch, and one past EagerMax with ErrExceedsEager.
// With the world's UseNB set it uses the NIC-based multicast, creating the
// (root, size-class) group context on first use; otherwise it runs the
// traditional host-based binomial broadcast.
func (r *Rank) Bcast(root int, data []byte) []byte {
	checkEager(len(data))
	if r.Size() == 1 {
		return data
	}
	if data == nil {
		data = []byte{} // a zero count, not a request for a fresh buffer
	}
	if r.w.UseNB {
		return r.bcastNB(root, data)
	}
	return r.bcastHB(root, data)
}

// bcastHB is MPICH's binomial broadcast over point-to-point messages: each
// process receives from its parent, then forwards to its children — the
// host is involved at every hop. A non-root receives into data.
func (r *Rank) bcastHB(root int, data []byte) []byte {
	n := r.Size()
	rel := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			r.recv((r.id-mask+n)%n, tagBcast, data)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			r.send((r.id+mask)%n, tagBcast, data)
		}
		mask >>= 1
	}
	return data
}

// sizeBucket groups message sizes into power-of-two classes so one group
// context (and its size-matched optimal tree) serves a band of sizes.
func sizeBucket(n int) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len(uint(n - 1)))
}

// groupID derives the deterministic multicast group identifier for a
// (communicator, root, size-bucket) context. All members compute it
// locally — no agreement protocol needed.
func groupID(comm uint32, root int, bucket uint8) gm.GroupID {
	id := gm.GroupID(comm*2654435761 + uint32(root)*64 + uint32(bucket) + 1)
	if id == 0 {
		id = 1
	}
	return id
}

// bcastNB is the modified broadcast: the root initiates one NIC-based
// multicast; intermediate NICs forward without host involvement; the
// destinations perform blocking receives, copying into data.
func (r *Rank) bcastNB(root int, data []byte) []byte {
	key := bcastKey{root: root, bucket: sizeBucket(len(data))}
	gid, ok := r.bcastGroups[key]
	if !ok {
		gid = r.createGroupContext(key)
	}
	if r.id == root {
		r.w.C.Nodes[r.id].Ext.Mcast(r.proc, r.port, gid, data)
		return data
	}
	ev := r.awaitGroup(gid)
	copy(landing(data, len(ev.Data)), ev.Data)
	r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(ev.Data)))
	r.replenish(ev)
	return data
}

// createGroupContext performs the demand-driven group creation the paper
// describes: "the first broadcast operation from a particular root in a
// communicator will cause a new group context to be created and the group
// membership to be updated into the NIC". The root builds the optimal
// spanning tree over every node for the size class, ships it to every
// rank, and waits for all membership updates to complete before the first
// multicast.
func (r *Rank) createGroupContext(key bcastKey) gm.GroupID {
	gid := groupID(worldCommID, key.root, key.bucket)
	if r.id == key.root {
		repSize := 1 << key.bucket
		if repSize > EagerMax {
			repSize = EagerMax
		}
		tr := r.w.C.Cfg.OptimalTree(r.node(key.root), r.nodes(), repSize)
		payload := encodeTree(uint32(gid), tr)
		if len(payload) > EagerMax {
			panic("mpi: group control message exceeds eager limit")
		}
		for dst := 0; dst < r.Size(); dst++ {
			if dst != key.root {
				r.sendKind(dst, tagCtl, kCtlGroup, payload)
			}
		}
		r.installGroup(gid, tr)
		for dst := 0; dst < r.Size(); dst++ {
			if dst != key.root {
				r.replenish(r.awaitMatch(dst, tagCtl, kCtlAck))
			}
		}
	} else {
		ev := r.awaitMatch(key.root, tagCtl, kCtlGroup)
		_, body := decodeEnvelope(ev.Data)
		wireGid, tr := decodeTree(body)
		if gm.GroupID(wireGid) != gid {
			panic("mpi: group id mismatch in control message")
		}
		r.installGroup(gid, tr)
		r.replenish(ev)
		r.sendKind(key.root, tagCtl, kCtlAck, nil)
	}
	r.bcastGroups[key] = gid
	return gid
}

// installGroup preposts the tree into the local NIC's group table and
// blocks until the firmware confirms the entry is live.
func (r *Rank) installGroup(gid gm.GroupID, tr *tree.Tree) {
	ext := r.w.C.Nodes[r.id].Ext
	done := false
	// The waiter is purely local: the rank's own install callback wakes the
	// rank's own process, on the shard owning this node.
	var w sim.Waiter
	ext.InstallGroup(gid, tr, mpiPort, mpiPort, func() {
		done = true
		w.WakeAll()
	})
	for !done {
		w.Wait(r.proc)
	}
}

// Barrier synchronizes all ranks. With the world's UseNB set it runs
// NIC-resident (one host request, rounds among the NICs, a completion
// event — see barrierNB); otherwise the hosts run the dissemination
// algorithm themselves.
func (r *Rank) Barrier() {
	if r.Size() == 1 {
		return
	}
	if r.w.UseNB {
		r.barrierNB()
		return
	}
	r.barrierHB()
}

// barrierHB is the host-based dissemination barrier: ceil(log2 n) rounds
// of point-to-point messages, the host paying send and receive work in
// every round.
func (r *Rank) barrierHB() {
	n := r.Size()
	for k := 1; k < n; k <<= 1 {
		r.send((r.id+k)%n, tagBarrier, nil)
		r.recv((r.id-k+n)%n, tagBarrier, nil)
	}
}
