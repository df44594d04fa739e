package mpi

import (
	"hash/fnv"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Comm is a communicator: an ordered group of world ranks with its own
// rank numbering, tag space, and (under the NIC-based broadcast) its own
// demand-created multicast group contexts — the "vast number of possible
// combinations of communicators and root nodes" the paper's demand-driven
// design exists for. A Comm value is one rank's view of the communicator.
type Comm struct {
	r       *Rank
	id      uint32
	members []int // world ranks; index is the communicator rank
	my      int   // this process's communicator rank
}

// worldCommID is the id of MPI_COMM_WORLD.
const worldCommID uint32 = 0

// World returns this rank's view of MPI_COMM_WORLD.
func (r *Rank) World() *Comm {
	if r.world == nil {
		members := make([]int, r.w.Size())
		for i := range members {
			members[i] = i
		}
		r.world = &Comm{r: r, id: worldCommID, members: members, my: r.id}
	}
	return r.world
}

// Rank reports the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.my }

// Size reports the communicator's member count.
func (c *Comm) Size() int { return len(c.members) }

// ID reports the communicator identifier (equal at every member).
func (c *Comm) ID() uint32 { return c.id }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(i int) int { return c.members[i] }

// nodes returns the member nodes in communicator-rank order.
func (c *Comm) nodes() []fabric.NodeID {
	out := make([]fabric.NodeID, len(c.members))
	for i, m := range c.members {
		out[i] = fabric.NodeID(m)
	}
	return out
}

// Send transmits data to communicator rank dst with a tag.
func (c *Comm) Send(dst int, tag int32, data []byte) {
	if tag < 0 {
		panic(ErrNegativeTag)
	}
	c.r.send(c.id, c.members[dst], tag, data)
}

// Recv blocks for a message from communicator rank src with a tag.
func (c *Comm) Recv(src int, tag int32) []byte {
	if tag < 0 {
		panic(ErrNegativeTag)
	}
	return c.r.recv(c.id, c.members[src], tag, nil)
}

// Sendrecv posts a send to dst then receives from src (both communicator
// ranks) on the same tag.
func (c *Comm) Sendrecv(dst int, sdata []byte, src int, tag int32) []byte {
	c.r.send(c.id, c.members[dst], tag, sdata)
	return c.r.recv(c.id, c.members[src], tag, nil)
}

// splitRecord is one member's contribution to a Split exchange.
type splitRecord struct {
	color, key, world int
}

// Split partitions the communicator like MPI_Comm_split: members calling
// with the same color form a new communicator, ordered by (key, world
// rank). A negative color returns nil (MPI_COMM_NULL). Split is
// collective: every member must call it, in the same order relative to
// other collectives on this communicator.
func (c *Comm) Split(color, key int) *Comm {
	// Epoch makes repeated splits of the same communicator produce
	// distinct child identifiers; it advances identically at every member
	// because Split is collective.
	epoch := c.r.splitEpochs[c.id]
	c.r.splitEpochs[c.id] = epoch + 1

	// Allgather everyone's (color, key) with a gather to communicator
	// rank 0 and one host-based broadcast back — a control exchange, so
	// it must not pollute the multicast group tables.
	mine := encodeSplit(splitRecord{color: color, key: key, world: c.r.id})
	blob := make([]byte, 12*c.Size())
	if c.my == 0 {
		copy(blob[:12], mine)
		for i := 1; i < c.Size(); i++ {
			copy(blob[12*i:], c.r.recv(c.id, c.members[i], tagSplit, nil))
		}
	} else {
		c.r.send(c.id, c.members[0], tagSplit, mine)
	}
	blob = c.bcastHB(0, blob)
	records := make([]splitRecord, c.Size())
	for i := range records {
		records[i] = decodeSplit(blob[12*i:])
	}

	if color < 0 {
		return nil
	}
	var group []splitRecord
	for _, rec := range records {
		if rec.color == color {
			group = append(group, rec)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].world < group[j].world
	})
	members := make([]int, len(group))
	my := -1
	for i, rec := range group {
		members[i] = rec.world
		if rec.world == c.r.id {
			my = i
		}
	}
	return &Comm{r: c.r, id: childCommID(c.id, epoch, color), members: members, my: my}
}

// childCommID derives the deterministic identifier all members agree on.
func childCommID(parent uint32, epoch, color int) uint32 {
	h := fnv.New32a()
	var b [12]byte
	put32 := func(off int, v uint32) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	put32(0, parent)
	put32(4, uint32(epoch))
	put32(8, uint32(color))
	h.Write(b[:])
	id := h.Sum32()
	if id == worldCommID {
		id = 1
	}
	return id
}

func encodeSplit(r splitRecord) []byte {
	out := make([]byte, 12)
	for i, v := range []int{r.color, r.key, r.world} {
		out[i*4] = byte(v)
		out[i*4+1] = byte(v >> 8)
		out[i*4+2] = byte(v >> 16)
		out[i*4+3] = byte(v >> 24)
	}
	return out
}

func decodeSplit(b []byte) splitRecord {
	get := func(i int) int {
		return int(int32(uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24))
	}
	return splitRecord{color: get(0), key: get(1), world: get(2)}
}

// Free releases the communicator's demand-created multicast group
// contexts from the local NIC, the teardown mirror of the paper's
// demand-driven creation. Free is collective and must follow a barrier so
// every member's outstanding multicast work has quiesced; the world
// communicator cannot be freed.
func (c *Comm) Free() {
	if c.id == worldCommID {
		panic(ErrFreeWorld)
	}
	// Quiesce with the host barrier: no member is inside a collective on
	// this comm, and teardown must not demand-create the NIC collective
	// context it is about to remove.
	c.barrierHB()
	r := c.r
	if gid, ok := r.collGroups[c.id]; ok {
		eng := r.collEngine()
		done := false
		var w sim.Waiter
		eng.Remove(gid, func() {
			done = true
			w.WakeAll()
		})
		for !done {
			w.Wait(r.proc)
		}
		ext := r.w.C.Nodes[r.id].Ext
		if ext.HasGroup(gid) {
			done = false
			ext.RemoveGroup(gid, func() {
				done = true
				w.WakeAll()
			})
			for !done {
				w.Wait(r.proc)
			}
		}
		delete(r.collGroups, c.id)
	}
	for key, bg := range r.bcastGroups {
		if key.comm != c.id {
			continue
		}
		ext := r.w.C.Nodes[r.id].Ext
		if ext.HasGroup(bg.gid) {
			// The barrier above synchronized the hosts, but the root's last
			// packets may still await child acknowledgments; RemoveGroup
			// rides the firmware quiesce path, deleting the entry the
			// moment the last send record retires.
			done := false
			var w sim.Waiter
			ext.RemoveGroup(bg.gid, func() {
				done = true
				w.WakeAll()
			})
			for !done {
				w.Wait(r.proc)
			}
		}
		delete(r.bcastGroups, key)
	}
}
