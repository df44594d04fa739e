package coll

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Allgather: every member contributes a vector and every member receives
// the concatenation, ordered by member index.
//
// Tree (default): concatenate-and-forward up the group's multicast tree.
// Each NIC batches its own entry with its children's, forwards the batch
// to its parent in MTU-sized chunks under stop-and-wait, and the root
// assembles the flat result and multicasts it back down the preposted
// tree. Latency is O(log n) hops but the root-adjacent links carry O(n)
// bytes — right for small vectors.
//
// Ring: each member forwards chunks to its successor; after n-1 hops
// everyone holds everything. Per-link traffic is uniform (n-1 chunks of
// one vector each), so large vectors avoid the tree's root hot-spot.

// Batch entry encoding (tree upward path):
//
//	[u32 member index][u32 element count][count * 8 bytes]
//
// repeated per contributing member. A batch larger than one MTU moves in
// chunks: KindGather frames carry Seq=instance, Offset=byte offset within
// the batch, MsgLen=total batch bytes.

// gatherInst is one open tree-allgather instance at one NIC: collected
// entries from this subtree, awaiting len(children)+1 contributions.
type gatherInst struct {
	need    int
	got     int
	from    bitset // child dedup
	entries []byte
	veclen  int // local contribution's element count (root validation)
}

// asmKey identifies one child's in-flight batch transfer.
type asmKey struct {
	child fabric.NodeID
	seq   uint32
}

// chunkAsm reassembles one child's chunked batch in arrival order.
type chunkAsm struct {
	buf     []byte
	got     int // contiguous bytes received
	unacked int // accepted chunks not yet acknowledged (ack economy)
}

// gatherSend is this NIC's outgoing batch. By default chunks move one at
// a time, each released by the previous chunk's acknowledgment. Under the
// ack economy (gm.Config.AckEvery) a window of AckEvery chunks flies at
// once: off is then the next unsent byte and acked the receiver's
// cumulative contiguous mark.
type gatherSend struct {
	batch []byte
	off   int
	acked int
}

// ringInst is one ring-allgather instance at one NIC.
type ringInst struct {
	flat    []int64
	have    []bool
	haveCnt int
	posted  bool // local host has contributed
	done    bool
	veclen  int
	queue   []int32 // member indices whose chunks await forwarding
	sending bool    // a hop is in flight (stop-and-wait: one at a time)
}

func appendEntry(buf []byte, idx int, vec []int64) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(idx))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(vec)))
	buf = append(buf, hdr[:]...)
	return append(buf, EncodeVec(vec)...)
}

// Allgather gathers every member's vector and blocks until this node
// holds the full concatenation (member order). All members must call it
// with equal-length vectors, in the same order. The port must be
// dedicated to collective use for the duration.
func (e *Engine) Allgather(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64) []int64 {
	g := e.requireMember(id, "Allgather")
	n := len(g.members)
	tree := g.gatherAlgo == GatherTree
	root := tree && e.isGroupRoot(id)
	if tree && !root {
		// The root multicasts the flat result down the preposted tree;
		// size a receive token for it before entering.
		port.Provide(8 * n * len(vec))
	}
	e.PostAllgather(proc, port, id, vec)
	for {
		ev := port.Recv(proc)
		if ev.Group == id && len(ev.Data) > 0 {
			res := DecodeVec(ev.Data)
			if root {
				e.ext.Mcast(proc, port, id, ev.Data) // in flight: not released
			} else {
				port.Release(ev)
			}
			return res
		}
		panic("coll: unexpected traffic on allgather port")
	}
}

// PostAllgather contributes this node's vector without blocking — the
// split entry point for callers multiplexing a port. Every member
// (ring), or the root (tree), observes the flat result as a group event;
// tree non-roots receive it via the downward multicast the blocking
// wrapper issues from the root.
func (e *Engine) PostAllgather(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64) {
	if port.NIC() != e.nic {
		panic(fmt.Errorf("%w: Allgather", core.ErrWrongNIC))
	}
	g := e.requireMember(id, "Allgather")
	if g.gatherAlgo == GatherRing && len(vec)*8 > e.nic.Cfg.MTU {
		panic(fmt.Errorf("%w: ring allgather vector of %d elements exceeds one packet", ErrBadReduce, len(vec)))
	}
	proc.Compute(e.nic.Cfg.HostSendPost)
	nic := e.nic
	nic.HW.HostPost(func() {
		nic.HW.CPUDo(nic.Cfg.SendEventCost, func() {
			if g.gatherAlgo == GatherRing {
				g.ringSeqBump()
				g.ringContribute(g.agSeq, vec)
				return
			}
			g.agSeq++
			g.treeContribute(g.agSeq, vec)
		})
	})
}

// requireMember returns the group entry, panicking unless this NIC is an
// installed member (sync check — caller-side misuse, not a race).
func (e *Engine) requireMember(id gm.GroupID, op string) *Group {
	g, ok := e.groups[id]
	if !ok || g.members == nil {
		panic(fmt.Errorf("%w: %s on group %d at %v", core.ErrNoSuchGroup, op, id, e.nic.ID()))
	}
	return g
}

// --- tree variant ---

// treeContribute files the local host's entry into the open instance.
func (g *Group) treeContribute(seq uint32, vec []int64) {
	e := g.eng
	_, _, children, _, ok := e.treeView(g.id)
	if !ok {
		e.m.notMemberDrops.Inc()
		return
	}
	st := g.openGather(seq, len(children))
	st.veclen = len(vec)
	entry := appendEntry(nil, g.myIdx, vec)
	cost := sim.PerByte(e.cfg.GatherNsPerByte, len(entry))
	e.nic.HW.CPUDo(cost, func() {
		st.entries = append(st.entries, entry...)
		st.got++
		g.finishGatherMaybe(seq, st)
	})
}

func (g *Group) openGather(seq uint32, nchildren int) *gatherInst {
	st := g.ag[seq]
	if st == nil {
		st = &gatherInst{need: nchildren + 1}
		if g.ag == nil {
			g.ag = make(map[uint32]*gatherInst)
		}
		g.ag[seq] = st
	}
	return st
}

// finishGatherMaybe closes the instance once every contribution is in:
// the root decodes and publishes the flat result; interior nodes start
// forwarding their batch upward.
func (g *Group) finishGatherMaybe(seq uint32, st *gatherInst) {
	if st.got < st.need {
		return
	}
	e := g.eng
	root, parent, _, _, ok := e.treeView(g.id)
	if !ok {
		e.m.notMemberDrops.Inc()
		return
	}
	delete(g.ag, seq)
	g.agDone.mark(seq)
	if root == e.nic.ID() {
		flat := g.assembleFlat(st)
		e.m.gathersDone.Inc()
		port := e.nic.Port(g.port)
		port.PostGroupEvent(&gm.RecvEvent{Group: g.id, Data: EncodeVec(flat)})
		return
	}
	if g.agOut == nil {
		g.agOut = make(map[uint32]*gatherSend)
	}
	g.agOut[seq] = &gatherSend{batch: st.entries}
	if e.nic.Cfg.AckCoalescing() {
		g.pumpGather(seq, g.agOut[seq], parent)
	} else {
		g.sendGatherChunk(seq, g.agOut[seq], parent)
	}
}

// assembleFlat decodes the root's collected entries into member order.
func (g *Group) assembleFlat(st *gatherInst) []int64 {
	n := len(g.members)
	flat := make([]int64, n*st.veclen)
	buf := st.entries
	for len(buf) > 0 {
		if len(buf) < 8 {
			panic(fmt.Errorf("coll: truncated allgather entry header on group %d", g.id))
		}
		idx := int(binary.LittleEndian.Uint32(buf[0:4]))
		cnt := int(binary.LittleEndian.Uint32(buf[4:8]))
		buf = buf[8:]
		if idx < 0 || idx >= n || cnt != st.veclen || len(buf) < 8*cnt {
			panic(fmt.Errorf("coll: malformed allgather entry (member %d, %d elems) on group %d", idx, cnt, g.id))
		}
		copy(flat[idx*st.veclen:], DecodeVec(buf[:8*cnt]))
		buf = buf[8*cnt:]
	}
	return flat
}

// sendGatherChunk transmits the next MTU-sized slice of the outgoing
// batch under stop-and-wait.
func (g *Group) sendGatherChunk(seq uint32, gs *gatherSend, parent fabric.NodeID) {
	e := g.eng
	n := len(gs.batch) - gs.off
	if n > e.nic.Cfg.MTU {
		n = e.nic.Cfg.MTU
	}
	e.m.gatherSent.Inc()
	e.m.bytesForwarded.Add(uint64(n))
	chunk := gs.batch[gs.off : gs.off+n]
	g.sendRel(skGather, gm.KindGather, parent, seq, int32(gs.off), gs.off, len(gs.batch), chunk)
}

// pumpGather keeps up to AckEvery chunks of the outgoing batch in flight
// (the ack economy's windowed variant of sendGatherChunk): the receiver
// acknowledges cumulatively every AckEvery-th chunk and at batch
// completion, and gatherWindowAcked re-pumps as the window reopens.
func (g *Group) pumpGather(seq uint32, gs *gatherSend, parent fabric.NodeID) {
	e := g.eng
	mtu := e.nic.Cfg.MTU
	window := e.nic.Cfg.AckEvery
	for gs.off < len(gs.batch) && (gs.off-gs.acked+mtu-1)/mtu < window {
		n := len(gs.batch) - gs.off
		if n > mtu {
			n = mtu
		}
		e.m.gatherSent.Inc()
		e.m.bytesForwarded.Add(uint64(n))
		chunk := gs.batch[gs.off : gs.off+n]
		g.sendRel(skGather, gm.KindGather, parent, seq, int32(gs.off), gs.off, len(gs.batch), chunk)
		gs.off += n
	}
}

// gatherWindowAcked folds a cumulative gather acknowledgment into the
// windowed transfer: advance the contiguous mark, retire the transfer
// when the whole batch is covered, else refill the window.
func (g *Group) gatherWindowAcked(seq uint32, got int) {
	gs := g.agOut[seq]
	if gs == nil {
		return
	}
	if got > gs.acked {
		gs.acked = got
	}
	if gs.acked >= len(gs.batch) {
		delete(g.agOut, seq)
		return
	}
	_, parent, _, _, ok := g.eng.treeView(g.id)
	if !ok {
		delete(g.agOut, seq) // group torn down mid-transfer
		return
	}
	g.pumpGather(seq, gs, parent)
}

// gatherChunkAcked advances the outgoing batch past the acknowledged
// chunk, sending the next one (or retiring the transfer).
func (g *Group) gatherChunkAcked(seq uint32) {
	gs := g.agOut[seq]
	if gs == nil {
		return
	}
	n := len(gs.batch) - gs.off
	if n > g.eng.nic.Cfg.MTU {
		n = g.eng.nic.Cfg.MTU
	}
	gs.off += n
	if gs.off >= len(gs.batch) {
		delete(g.agOut, seq)
		return
	}
	_, parent, _, _, ok := g.eng.treeView(g.id)
	if !ok {
		delete(g.agOut, seq) // group torn down mid-transfer
		return
	}
	g.sendGatherChunk(seq, gs, parent)
}

// rxGather reassembles a child's chunked batch, merging it into the open
// instance once complete.
func (e *Engine) rxGather(src fabric.NodeID, fr *gm.Frame) {
	nic := e.nic
	buf, ok := nic.HW.RecvBufs.TryAcquire()
	if !ok {
		nic.HW.CountRxNoBuffer()
		return
	}
	nic.HW.CPUDo(nic.Cfg.RecvProcCost, func() {
		defer buf.Release()
		_, _, children, _, ok := e.treeView(fr.Group)
		if !ok {
			// No group entry yet: stay silent so the child retransmits
			// after our install lands.
			e.m.notMemberDrops.Inc()
			return
		}
		g := e.groupFor(fr.Group)
		coalesce := nic.Cfg.AckCoalescing()
		// Default acks echo the chunk offset (exact-match retire); economy
		// acks carry the cumulative contiguous byte mark instead, so one
		// covers a whole window of chunks.
		ackAt := func(off int) { e.ack(gm.KindGatherAck, src, fr.Group, fr.Seq, off) }
		if g.agDone.has(fr.Seq) {
			// Late chunk retransmit of a completed instance.
			if coalesce {
				ackAt(fr.MsgLen)
			} else {
				ackAt(fr.Offset)
			}
			e.m.duplicates.Inc()
			return
		}
		key := asmKey{child: src, seq: fr.Seq}
		casm := g.asm[key]
		if casm == nil {
			casm = &chunkAsm{buf: make([]byte, 0, fr.MsgLen)}
			if g.asm == nil {
				g.asm = make(map[asmKey]*chunkAsm)
			}
			g.asm[key] = casm
		}
		switch {
		case fr.Offset == casm.got:
			casm.buf = append(casm.buf, fr.Payload...)
			casm.got += len(fr.Payload)
			if !coalesce {
				ackAt(fr.Offset)
				break
			}
			casm.unacked++
			if casm.unacked >= nic.Cfg.AckEvery || casm.got >= fr.MsgLen {
				e.m.acksSuppressed.Add(uint64(casm.unacked - 1))
				casm.unacked = 0
				ackAt(casm.got)
			}
			// Held chunks need no receiver timer: the sender's window fills
			// exactly at the ack threshold, and its stop-and-wait timer plus
			// the duplicate re-ack below break any loss-induced stall.
		case fr.Offset < casm.got:
			// Duplicate chunk; re-ack so the child advances. Under the
			// economy the cumulative mark also covers anything held.
			if coalesce {
				e.m.acksSuppressed.Add(uint64(casm.unacked))
				casm.unacked = 0
				ackAt(casm.got)
			} else {
				ackAt(fr.Offset)
			}
			e.m.duplicates.Inc()
			return
		default:
			// A gap cannot happen under one-at-a-time stop-and-wait, and
			// under the windowed economy the sender's timer recovers it;
			// drop without ack.
			e.m.duplicates.Inc()
			return
		}
		if casm.got < fr.MsgLen {
			return
		}
		delete(g.asm, key)
		idx := childIndex(children, src)
		if idx < 0 {
			e.m.duplicates.Inc()
			return
		}
		st := g.openGather(fr.Seq, len(children))
		if st.from.setBit(idx) {
			e.m.duplicates.Inc()
			return
		}
		batch := casm.buf
		cost := sim.PerByte(e.cfg.GatherNsPerByte, len(batch))
		nic.HW.CPUDo(cost, func() {
			st.entries = append(st.entries, batch...)
			st.got++
			g.finishGatherMaybe(fr.Seq, st)
		})
	})
}

// --- ring variant ---

// ringSeqBump opens the next ring instance number for the local post.
// (Remote chunks for it may already have arrived and created the
// instance; the sequence space is shared, advanced once per post.)
func (g *Group) ringSeqBump() { g.agSeq++ }

func (g *Group) openRing(seq uint32, veclen int) *ringInst {
	st := g.ring[seq]
	if st == nil {
		n := len(g.members)
		st = &ringInst{
			flat:   make([]int64, n*veclen),
			have:   make([]bool, n),
			veclen: veclen,
		}
		if g.ring == nil {
			g.ring = make(map[uint32]*ringInst)
		}
		g.ring[seq] = st
	}
	return st
}

// ringContribute places the local vector and starts it around the ring.
func (g *Group) ringContribute(seq uint32, vec []int64) {
	st := g.openRing(seq, len(vec))
	st.posted = true
	g.ringPlace(st, g.myIdx, vec)
	if len(g.members) > 1 {
		st.queue = append(st.queue, int32(g.myIdx))
		g.pumpRing(seq, st)
	}
	g.ringFinishMaybe(seq, st)
}

// ringPlace copies member idx's chunk into the flat result.
func (g *Group) ringPlace(st *ringInst, idx int, vec []int64) {
	if st.have[idx] {
		return
	}
	st.have[idx] = true
	st.haveCnt++
	copy(st.flat[idx*st.veclen:], vec)
}

// pumpRing forwards the next queued chunk to the successor — one hop in
// flight at a time, each released by the previous hop's ack.
func (g *Group) pumpRing(seq uint32, st *ringInst) {
	if st.sending || len(st.queue) == 0 {
		return
	}
	idx := int(st.queue[0])
	st.queue = st.queue[1:]
	st.sending = true
	succ := g.members[(g.myIdx+1)%len(g.members)]
	e := g.eng
	e.m.ringSent.Inc()
	e.m.bytesForwarded.Add(uint64(8 * st.veclen))
	chunk := st.flat[idx*st.veclen : (idx+1)*st.veclen]
	g.sendRel(skRing, gm.KindRing, succ, seq, int32(idx), idx, 0, EncodeVec(chunk))
}

// ringHopAcked releases the next hop after the previous one is
// acknowledged, retiring the instance once drained.
func (g *Group) ringHopAcked(seq uint32) {
	st := g.ring[seq]
	if st == nil {
		return
	}
	st.sending = false
	g.pumpRing(seq, st)
	g.ringFinishMaybe(seq, st)
}

// ringFinishMaybe publishes the flat result once every chunk is present
// and deletes the instance once its forwards have drained.
func (g *Group) ringFinishMaybe(seq uint32, st *ringInst) {
	if !st.done && st.posted && st.haveCnt == len(g.members) {
		st.done = true
		g.ringDone.mark(seq)
		e := g.eng
		e.m.gathersDone.Inc()
		port := e.nic.Port(g.port)
		port.PostGroupEvent(&gm.RecvEvent{Group: g.id, Data: EncodeVec(st.flat)})
	}
	if st.done && len(st.queue) == 0 && !st.sending {
		delete(g.ring, seq)
	}
}

// rxRing handles a predecessor's chunk: place it, forward it onward
// unless it originated at our successor (it has gone full circle).
func (e *Engine) rxRing(src fabric.NodeID, fr *gm.Frame) {
	nic := e.nic
	buf, ok := nic.HW.RecvBufs.TryAcquire()
	if !ok {
		nic.HW.CountRxNoBuffer()
		return
	}
	nic.HW.CPUDo(nic.Cfg.RecvProcCost, func() {
		defer buf.Release()
		g, ok := e.groups[fr.Group]
		if !ok || g.members == nil {
			e.m.notMemberDrops.Inc()
			return
		}
		e.ack(gm.KindRingAck, src, fr.Group, fr.Seq, fr.Offset)
		if g.ringDone.has(fr.Seq) {
			e.m.duplicates.Inc()
			return
		}
		n := len(g.members)
		idx := fr.Offset
		veclen := len(fr.Payload) / 8
		if idx < 0 || idx >= n || veclen == 0 {
			e.m.duplicates.Inc()
			return
		}
		st := g.openRing(fr.Seq, veclen)
		if st.have[idx] {
			e.m.duplicates.Inc()
			return
		}
		vec := DecodeVec(fr.Payload)
		cost := sim.PerByte(e.cfg.GatherNsPerByte, len(fr.Payload))
		nic.HW.CPUDo(cost, func() {
			g.ringPlace(st, idx, vec)
			// Forward unless the chunk originated at our successor —
			// it has completed the circle.
			if idx != (g.myIdx+1)%n {
				st.queue = append(st.queue, int32(idx))
				g.pumpRing(fr.Seq, st)
			}
			g.ringFinishMaybe(fr.Seq, st)
		})
	})
}
