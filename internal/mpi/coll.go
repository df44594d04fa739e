package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Collectives over a communicator. The rank-level methods (Rank.Bcast
// etc.) delegate to MPI_COMM_WORLD.

// Bcast broadcasts data from root to every rank of the world communicator.
func (r *Rank) Bcast(root int, data []byte) []byte { return r.World().Bcast(root, data) }

// Barrier synchronizes the world communicator.
func (r *Rank) Barrier() { r.World().Barrier() }

// Allreduce combines one float64 per world rank.
func (r *Rank) Allreduce(val float64, op func(a, b float64) float64) float64 {
	return r.World().Allreduce(val, op)
}

// AlltoallBcast has every world rank broadcast its buffer to all others.
func (r *Rank) AlltoallBcast(mine []byte) [][]byte { return r.World().AlltoallBcast(mine) }

// Bcast broadcasts data from communicator rank root to every member. The
// buffer is in/out, as MPI_Bcast's is: the root's is sent, every other
// member's is overwritten with the root's message and returned. Every
// member must pass a same-length buffer (MPI_Bcast's consistent count);
// one that differs panics with ErrCountMismatch. With the world's UseNB
// set and an eager-sized message it uses the NIC-based multicast,
// creating the (communicator, root, size-class) group context on first
// use; otherwise — including all rendezvous-sized messages, which
// MPICH-GM moves by remote DMA — it runs the traditional host-based
// binomial broadcast.
func (c *Comm) Bcast(root int, data []byte) []byte {
	if c.Size() == 1 {
		return data
	}
	if data == nil {
		data = []byte{} // a zero count, not a request for a fresh buffer
	}
	if c.r.w.UseNB && len(data) <= EagerMax {
		return c.bcastNB(root, data)
	}
	return c.bcastHB(root, data)
}

// bcastHB is MPICH's binomial broadcast over point-to-point messages: each
// process receives from its parent, then forwards to its children — the
// host is involved at every hop. A non-root receives into data.
func (c *Comm) bcastHB(root int, data []byte) []byte {
	n := c.Size()
	rel := (c.my - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (c.my - mask + n) % n
			c.r.recv(c.id, c.members[parent], tagBcast, data)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (c.my + mask) % n
			c.r.send(c.id, c.members[dst], tagBcast, data)
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
func groupID(comm uint32, worldRoot int, bucket uint8) gm.GroupID {
	id := gm.GroupID(comm*2654435761 + uint32(worldRoot)*64 + uint32(bucket) + 1)
	if id == 0 {
		id = 1
	}
	return id
}

// bcastNB is the modified broadcast: the root initiates one NIC-based
// multicast; intermediate NICs forward without host involvement; the
// destinations perform blocking receives, copying into data.
func (c *Comm) bcastNB(root int, data []byte) []byte {
	r := c.r
	key := bcastKey{comm: c.id, root: c.members[root], bucket: sizeBucket(len(data))}
	bg, ok := r.bcastGroups[key]
	if !ok {
		bg = c.createGroupContext(root, key)
	}
	if c.my == root {
		ext := r.w.C.Nodes[r.id].Ext
		ext.Mcast(r.proc, r.port, bg.gid, data)
		return data
	}
	ev := r.awaitGroup(bg.gid)
	copy(landing(data, len(ev.Data)), ev.Data)
	r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(ev.Data)))
	r.replenish(ev)
	return data
}

// createGroupContext performs the demand-driven group creation the paper
// describes: "the first broadcast operation from a particular root in a
// communicator will cause a new group context to be created and the group
// membership to be updated into the NIC". The root builds the optimal
// spanning tree over the communicator's nodes for the size class, ships
// it to every member, and waits for all membership updates to complete
// before the first multicast.
func (c *Comm) createGroupContext(root int, key bcastKey) *bcastGroup {
	r := c.r
	gid := groupID(key.comm, key.root, key.bucket)
	if c.my == root {
		repSize := 1 << key.bucket
		if repSize > EagerMax {
			repSize = EagerMax
		}
		tr := r.w.C.Cfg.OptimalTree(r.node(key.root), c.nodes(), repSize)
		payload := encodeTree(uint32(gid), tr)
		if len(payload) > EagerMax {
			panic("mpi: group control message exceeds eager limit")
		}
		for dst := 0; dst < c.Size(); dst++ {
			if dst != root {
				r.sendKind(c.id, c.members[dst], tagCtl, kCtlGroup, payload)
			}
		}
		r.installGroup(gid, tr)
		for dst := 0; dst < c.Size(); dst++ {
			if dst != root {
				r.replenish(r.awaitMatch(c.id, c.members[dst], tagCtl, 0, kCtlAck))
			}
		}
	} else {
		ev := r.awaitMatch(c.id, c.members[root], tagCtl, 0, kCtlGroup)
		_, body := decodeEnvelope(ev.Data)
		wireGid, tr := decodeTree(body)
		if gm.GroupID(wireGid) != gid {
			panic("mpi: group id mismatch in control message")
		}
		r.installGroup(gid, tr)
		r.replenish(ev)
		r.sendKind(c.id, c.members[root], tagCtl, kCtlAck, nil)
	}
	bg := &bcastGroup{gid: gid}
	r.bcastGroups[key] = bg
	return bg
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

// Barrier synchronizes all communicator members. With the world's UseNB
// set it runs NIC-resident (one host request, rounds among the NICs, a
// completion event — see barrierNB); otherwise the hosts run the
// dissemination algorithm themselves.
func (c *Comm) Barrier() {
	if c.Size() == 1 {
		return
	}
	if c.r.w.UseNB {
		c.barrierNB()
		return
	}
	c.barrierHB()
}

// barrierHB is the host-based dissemination barrier: ceil(log2 n) rounds
// of point-to-point messages, the host paying send and receive work in
// every round.
func (c *Comm) barrierHB() {
	n := c.Size()
	for k := 1; k < n; k <<= 1 {
		dst := (c.my + k) % n
		src := (c.my - k + n) % n
		c.r.send(c.id, c.members[dst], tagBarrier, nil)
		c.r.recv(c.id, c.members[src], tagBarrier, nil)
	}
}

// Allreduce combines one float64 per member with op and returns the
// result on every member — one of the paper's future-work NIC-multicast
// clients. Values reduce to communicator rank 0 along a binomial tree,
// then broadcast. This closure form is permanently host-based: an opaque
// Go function cannot run in firmware, and the LANai has no FPU for
// float64 arithmetic regardless. Use AllreduceVec with a typed operator
// (coll.OpSum/OpMin/OpMax over int64 vectors) for the NIC-offloaded path.
func (c *Comm) Allreduce(val float64, op func(a, b float64) float64) float64 {
	n := c.Size()
	acc := val
	mask := 1
	for mask < n {
		if c.my&mask != 0 {
			c.r.send(c.id, c.members[c.my-mask], tagGather, encodeF64(acc))
			break
		}
		if c.my+mask < n {
			other := decodeF64(c.r.recv(c.id, c.members[c.my+mask], tagGather, nil))
			acc = op(acc, other)
		}
		mask <<= 1
	}
	return decodeF64(c.Bcast(0, encodeF64(acc)))
}

// AlltoallBcast has every member broadcast its buffer to all others and
// returns the buffers in communicator-rank order — the paper's "Alltoall
// broadcast".
func (c *Comm) AlltoallBcast(mine []byte) [][]byte {
	out := make([][]byte, c.Size())
	for root := 0; root < c.Size(); root++ {
		buf := mine
		if root != c.my {
			buf = make([]byte, len(mine))
		}
		out[root] = c.Bcast(root, buf)
	}
	return out
}

func encodeF64(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func decodeF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Gather collects each member's equal-length buffer at the communicator
// root, which returns them in rank order (other members return nil) —
// MPI_Gather along a binomial tree with concatenated subtree payloads.
func (c *Comm) Gather(root int, mine []byte) [][]byte {
	n := c.Size()
	if n == 1 {
		return [][]byte{mine}
	}
	chunk := len(mine)
	rel := (c.my - root + n) % n
	// Accumulate this subtree's chunks in relative-rank order: receiving
	// from children nearest-first (mask ascending) appends the spans
	// [rel+1], [rel+2, rel+4), ... contiguously.
	buf := append(make([]byte, 0, chunk*n), mine...)
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (c.my - mask + n) % n
			c.r.send(c.id, c.members[parent], tagGather, buf)
			return nil
		}
		if rel+mask < n {
			child := (c.my + mask) % n
			buf = append(buf, c.r.recv(c.id, c.members[child], tagGather, nil)...)
		}
		mask <<= 1
	}
	// The root holds relative-rank order; rotate to absolute rank order.
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		out[(root+i)%n] = buf[i*chunk : (i+1)*chunk]
	}
	return out
}

// Scatter distributes the root's per-rank buffers (all equal length):
// each member returns its own — MPI_Scatter along the binomial broadcast
// tree, each subtree receiving only its span.
func (c *Comm) Scatter(root int, parts [][]byte) []byte {
	n := c.Size()
	if n == 1 {
		return parts[0]
	}
	rel := (c.my - root + n) % n
	var span []byte
	var chunk, startMask int
	if rel == 0 {
		if len(parts) != n {
			panic(fmt.Errorf("%w: need one part per rank", ErrBadScatter))
		}
		chunk = len(parts[0])
		span = make([]byte, 0, chunk*n)
		for i := 0; i < n; i++ {
			p := parts[(root+i)%n] // relative-rank order
			if len(p) != chunk {
				panic(fmt.Errorf("%w: parts must be equal length", ErrBadScatter))
			}
			span = append(span, p...)
		}
		startMask = 1
		for startMask < n {
			startMask <<= 1
		}
		startMask >>= 1
	} else {
		mask := 1
		for rel&mask == 0 {
			mask <<= 1
		}
		span = c.r.recv(c.id, c.members[(c.my-mask+n)%n], tagScatter, nil)
		width := min(mask, n-rel)
		chunk = len(span) / width
		startMask = mask >> 1
	}
	// My span covers relative ranks [rel, rel+width); the child at rel+m
	// owns the chunks [m, m+min(m, n-(rel+m))) of it. Cut farthest-first.
	for m := startMask; m > 0; m >>= 1 {
		if rel+m < n {
			cnt := min(m, n-(rel+m))
			child := (c.my + m) % n
			c.r.send(c.id, c.members[child], tagScatter, span[m*chunk:(m+cnt)*chunk])
			span = span[:m*chunk]
		}
	}
	return span[:chunk]
}

// Gather and Scatter on the world communicator.
func (r *Rank) Gather(root int, mine []byte) [][]byte { return r.World().Gather(root, mine) }
func (r *Rank) Scatter(root int, parts [][]byte) []byte {
	return r.World().Scatter(root, parts)
}

// Reduce combines one float64 per member at the communicator root, which
// alone receives the result (others get 0) — MPI_Reduce along the
// binomial tree.
func (c *Comm) Reduce(root int, val float64, op func(a, b float64) float64) float64 {
	n := c.Size()
	rel := (c.my - root + n) % n
	acc := val
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (c.my - mask + n) % n
			c.r.send(c.id, c.members[parent], tagGather, encodeF64(acc))
			return 0
		}
		if rel+mask < n {
			child := (c.my + mask) % n
			acc = op(acc, decodeF64(c.r.recv(c.id, c.members[child], tagGather, nil)))
		}
		mask <<= 1
	}
	return acc
}

// Reduce on the world communicator.
func (r *Rank) Reduce(root int, val float64, op func(a, b float64) float64) float64 {
	return r.World().Reduce(root, val, op)
}
