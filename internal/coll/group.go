package coll

import (
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Send-record classes: one shared stop-and-wait mechanism serves every
// collective, discriminated by class when matching acknowledgments.
const (
	skBarrier uint8 = iota
	skReduce
	skGather
	skRing
)

// upRecord is one outstanding collective transmission awaiting its ack.
// The frame is embedded (not pointed to) so records recycle through the
// group's free list without allocating; only the injected wire clone is
// per-transmission.
type upRecord struct {
	class  uint8
	seq    uint32 // collective instance
	aux    int32  // ack-matching discriminant: round / byte offset / chunk index
	dst    fabric.NodeID
	frame  gm.Frame
	sentAt sim.Time
}

// Group is one NIC's collective group entry.
type Group struct {
	eng  *Engine
	id   gm.GroupID
	port gm.PortID

	// members is the sorted member set (nil for an auto-mirrored entry
	// that only ever relays tree collectives); myIdx is this node's index.
	members []fabric.NodeID
	myIdx   int
	auto    bool

	barrierAlgo BarrierAlgo
	gatherAlgo  GatherAlgo

	// Binomial neighborhood for the tree barrier (derived from members at
	// install; independent of the multicast tree, which barrier-only
	// groups do not require).
	barParent   fabric.NodeID
	barChildren []fabric.NodeID

	// Stop-and-wait machinery: outstanding records, a free list, and one
	// reusable retransmit timer over all of them (PR-2 kernel discipline —
	// no per-message timer allocation).
	out   []*upRecord
	free  []*upRecord
	timer *sim.Timer

	// Dissemination barrier. recvdCur/recvdNext are per-round arrival
	// bitmasks for the current instance and the next (a peer can run at
	// most one instance ahead — it cannot complete instance s+1 before
	// every member, us included, has entered s+1).
	barSeq              uint32
	barRound            int
	barActive           bool
	rounds              int
	recvdCur, recvdNext uint32

	// Tree barrier: child-arrival bitsets for current/next instance.
	upCur, upNext bitset

	// Reduce instances in flight, plus the completed-instance set that
	// replaces the old never-cleaned duplicate map.
	redSeq  uint32
	red     map[uint32]*reduceInst
	redDone doneSet

	// Tree allgather: open instances, per-(child, instance) chunk
	// reassembly, and per-instance outgoing batch transfers.
	agSeq  uint32
	ag     map[uint32]*gatherInst
	asm    map[asmKey]*chunkAsm
	agOut  map[uint32]*gatherSend
	agDone doneSet

	// Ring allgather instances.
	ring     map[uint32]*ringInst
	ringDone doneSet
}

// getRec takes a record from the free list (or allocates the pool's next).
func (g *Group) getRec() *upRecord {
	if n := len(g.free); n > 0 {
		r := g.free[n-1]
		g.free = g.free[:n-1]
		return r
	}
	return &upRecord{}
}

// sendRel transmits one collective frame with stop-and-wait reliability:
// the record joins the group's outstanding list and the shared retransmit
// timer covers it until the matching ack arrives.
func (g *Group) sendRel(class uint8, kind gm.Kind, dst fabric.NodeID, seq uint32, aux int32, off int, msgLen int, payload []byte) {
	nic := g.eng.nic
	rec := g.getRec()
	rec.class, rec.seq, rec.aux, rec.dst = class, seq, aux, dst
	rec.frame = gm.Frame{
		Kind:    kind,
		Group:   g.id,
		Seq:     seq,
		Offset:  off,
		MsgLen:  msgLen,
		Payload: payload,
	}
	rec.sentAt = nic.Engine().Now()
	g.out = append(g.out, rec)
	nic.Inject(rec.frame.Clone(), dst, nil)
	g.armTimer()
}

// armTimer (re)arms the shared timer at the earliest outstanding
// record's deadline, or stops it when nothing is outstanding.
func (g *Group) armTimer() {
	if len(g.out) == 0 {
		g.timer.Stop()
		return
	}
	earliest := g.out[0].sentAt
	for _, r := range g.out[1:] {
		if r.sentAt < earliest {
			earliest = r.sentAt
		}
	}
	eng := g.eng.nic.Engine()
	deadline := earliest + g.eng.nic.Cfg.RetransmitTimeout
	if deadline < eng.Now() {
		deadline = eng.Now()
	}
	g.timer.Reset(deadline)
}

// onTimeout retransmits every record whose stop-and-wait interval has
// elapsed, then rearms for the next deadline.
func (g *Group) onTimeout() {
	if len(g.out) == 0 {
		return
	}
	nic := g.eng.nic
	now := nic.Engine().Now()
	rto := nic.Cfg.RetransmitTimeout
	for _, rec := range g.out {
		if now-rec.sentAt < rto {
			continue
		}
		rec.sentAt = now
		g.eng.m.retransmits.Inc()
		nic.Inject(rec.frame.Clone(), rec.dst, nil)
	}
	g.armTimer()
}

// ackRecord retires the outstanding record matching an acknowledgment;
// reports whether one was found. class, seq and aux identify the logical
// transmission; src disambiguates same-keyed sends to different peers
// (a tree barrier's release goes to every child under one key).
func (g *Group) ackRecord(class uint8, seq uint32, aux int32, src fabric.NodeID) bool {
	for i, rec := range g.out {
		if rec.class != class || rec.seq != seq || rec.aux != aux || rec.dst != src {
			continue
		}
		copy(g.out[i:], g.out[i+1:])
		g.out[len(g.out)-1] = nil
		g.out = g.out[:len(g.out)-1]
		rec.frame.Payload = nil
		g.free = append(g.free, rec)
		g.armTimer()
		return true
	}
	return false
}

// ackRecordsCumulative retires every outstanding record of one class and
// instance to src whose chunk starts below the cumulative byte mark —
// the windowed-gather half of the ack economy, where one coalesced ack
// covers several chunks. Reports how many records retired.
func (g *Group) ackRecordsCumulative(class uint8, seq uint32, upTo int32, src fabric.NodeID) int {
	retired := 0
	out := g.out[:0]
	for _, rec := range g.out {
		if rec.class == class && rec.seq == seq && rec.dst == src && rec.aux < upTo {
			rec.frame.Payload = nil
			g.free = append(g.free, rec)
			retired++
			continue
		}
		out = append(out, rec)
	}
	for i := len(out); i < len(g.out); i++ {
		g.out[i] = nil
	}
	g.out = out
	if retired > 0 {
		g.armTimer()
	}
	return retired
}

// rxAck handles any collective acknowledgment kind: retire the record,
// then run per-class continuation (the tree allgather sends its next
// batch chunk when the previous one is acknowledged).
func (e *Engine) rxAck(class uint8, src fabric.NodeID, c fabric.Ctl) {
	nic := e.nic
	group, seq, off := gm.GroupID(c.Group), c.Seq, int(c.Offset)
	nic.HW.CPUDo(nic.Cfg.AckProcCost, func() {
		g, ok := e.groups[group]
		if !ok {
			return // stale ack for a group we no longer know
		}
		if class == skGather && nic.Cfg.AckCoalescing() {
			// Windowed gather: the ack's Offset is the receiver's cumulative
			// contiguous byte count, retiring every chunk below it at once.
			g.ackRecordsCumulative(skGather, seq, int32(off), src)
			g.gatherWindowAcked(seq, off)
			return
		}
		aux := int32(off)
		if class == skReduce {
			aux = 0 // reduce acks echo only the instance
		}
		if !g.ackRecord(class, seq, aux, src) {
			return // duplicate ack
		}
		switch class {
		case skGather:
			g.gatherChunkAcked(seq)
		case skRing:
			g.ringHopAcked(seq)
		}
	})
}

// doneSet tracks completed collective instances compactly: a cumulative
// low-water mark plus a small overflow set for out-of-order completions
// (instances can finish out of order when contributions race). This
// replaces the old per-(child, instance) duplicate map that was never
// cleaned — state is O(gap), not O(history).
type doneSet struct {
	through uint32 // every instance <= through (serially) is complete
	above   map[uint32]bool
}

func (d *doneSet) mark(s uint32) {
	if s == d.through+1 {
		d.through++
		for d.above[d.through+1] {
			delete(d.above, d.through+1)
			d.through++
		}
		return
	}
	if gm.SeqAfter(s, d.through) {
		if d.above == nil {
			d.above = make(map[uint32]bool)
		}
		d.above[s] = true
	}
}

func (d *doneSet) has(s uint32) bool {
	return !gm.SeqAfter(s, d.through) || d.above[s]
}

// open reports in-flight overflow entries (leak check).
func (d *doneSet) open() int { return len(d.above) }

// bitset is a tiny growable bitmask (child-arrival tracking for trees of
// any fanout).
type bitset []uint64

func (b *bitset) grow(n int) {
	words := (n + 63) / 64
	for len(*b) < words {
		*b = append(*b, 0)
	}
}

// setBit sets bit i, reporting whether it was already set.
func (b *bitset) setBit(i int) bool {
	b.grow(i + 1)
	w, m := i/64, uint64(1)<<(i%64)
	prior := (*b)[w]&m != 0
	(*b)[w] |= m
	return prior
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func (b *bitset) clear() {
	for i := range *b {
		(*b)[i] = 0
	}
}

// swap moves next's bits into cur (instance rollover), clearing next.
func swapBitsets(cur, next *bitset) {
	*cur, *next = *next, *cur
	next.clear()
}

// childIndex finds src in a child list (-1 if absent).
func childIndex(children []fabric.NodeID, src fabric.NodeID) int {
	for i, c := range children {
		if c == src {
			return i
		}
	}
	return -1
}
