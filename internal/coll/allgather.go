package coll

import (
	"encoding/binary"
	"fmt"
	"slices"

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
// to its parent in MTU-sized chunks, and the root assembles the flat
// result and multicasts it back down the preposted tree. Latency is
// O(log n) hops but the root-adjacent links carry O(n) bytes — right for
// small vectors.
//
// Ring: each member forwards chunks to its successor; after n-1 hops
// everyone holds everything. Per-link traffic is uniform (n-1 chunks of
// one vector each), so large vectors avoid the tree's root hot-spot.

// Batch entry encoding (tree upward path):
//
//	[u32 member index][u32 element count][count * 8 bytes]
//
// repeated per contributing member. A batch larger than one MTU moves in
// chunks: KindGather frames carry MsgID=instance, Offset=byte offset within
// the batch, MsgLen=total batch bytes.

// gatherInst is one open tree-allgather instance at one NIC: collected
// entries from this subtree, awaiting len(children)+1 contributions.
type gatherInst struct {
	need    int
	got     int
	entries []byte
	veclen  int // local contribution's element count (root validation)
}

// asmKey identifies one child's in-flight batch transfer.
type asmKey struct {
	child fabric.NodeID
	seq   uint32
}

// gatherSend is this NIC's outgoing batch: off is the next unsent byte,
// acked the bytes the parent has acknowledged. By default chunks move one
// at a time, each released by the previous chunk's acknowledgment; under
// the ack economy (gm.Config.AckEvery) a window of AckEvery chunks flies at
// once.
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
	sending bool    // a hop is in flight (one at a time)
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
	ev := awaitEvent(proc, port, id, "allgather", true)
	if root {
		port.Keep(ev) // the multicast reads ev.Data until it completes
		e.ext.Mcast(proc, port, id, ev.Data)
	}
	return DecodeVec(ev.Data)
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
	gs := &gatherSend{batch: st.entries}
	g.agOut[seq] = gs
	g.pumpGather(seq, gs, parent)
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

// pumpGather keeps the outgoing batch's chunks in flight to the parent:
// one at a time, or AckEvery under the ack economy, whose receiver
// acknowledges every AckEvery-th chunk and the batch's last.
func (g *Group) pumpGather(seq uint32, gs *gatherSend, parent fabric.NodeID) {
	e := g.eng
	mtu := e.nic.Cfg.MTU
	window := max(e.nic.Cfg.AckEvery, 1)
	for gs.off < len(gs.batch) && (gs.off-gs.acked+mtu-1)/mtu < window {
		n := min(len(gs.batch)-gs.off, mtu)
		e.m.gatherSent.Inc()
		e.m.bytesForwarded.Add(uint64(n))
		g.send(parent, &gm.Frame{
			Kind: gm.KindGather, MsgID: uint64(seq),
			Offset: gs.off, MsgLen: len(gs.batch), Payload: gs.batch[gs.off : gs.off+n],
		})
		gs.off += n
	}
}

// gatherChunkAcked folds one acknowledged chunk of n bytes into the
// outgoing batch: retire the transfer once the whole batch is covered, else
// refill the window.
func (g *Group) gatherChunkAcked(seq uint32, n int) {
	gs := g.agOut[seq]
	if gs == nil {
		return
	}
	gs.acked += n
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
		if !g.accept(src, fr) {
			return
		}
		seq := uint32(fr.MsgID)
		key := asmKey{child: src, seq: seq}
		batch := g.asm[key]
		if batch == nil {
			batch = make([]byte, 0, fr.MsgLen)
		}
		batch = append(batch, fr.Payload...)
		if len(batch) < fr.MsgLen {
			if g.asm == nil {
				g.asm = make(map[asmKey][]byte)
			}
			g.asm[key] = batch
			return
		}
		delete(g.asm, key)
		if !slices.Contains(children, src) {
			e.m.duplicates.Inc() // not our child under the current view
			return
		}
		st := g.openGather(seq, len(children))
		cost := sim.PerByte(e.cfg.GatherNsPerByte, len(batch))
		nic.HW.CPUDo(cost, func() {
			st.entries = append(st.entries, batch...)
			st.got++
			g.finishGatherMaybe(seq, st)
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
	g.send(succ, &gm.Frame{Kind: gm.KindRing, MsgID: uint64(seq), Offset: idx, Payload: EncodeVec(chunk)})
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
		if !g.accept(src, fr) {
			return
		}
		n, idx, seq := len(g.members), fr.Offset, uint32(fr.MsgID)
		st := g.openRing(seq, len(fr.Payload)/8)
		vec := DecodeVec(fr.Payload)
		cost := sim.PerByte(e.cfg.GatherNsPerByte, len(fr.Payload))
		nic.HW.CPUDo(cost, func() {
			g.ringPlace(st, idx, vec)
			// Forward unless the chunk originated at our successor —
			// it has completed the circle.
			if idx != (g.myIdx+1)%n {
				st.queue = append(st.queue, int32(idx))
				g.pumpRing(seq, st)
			}
			g.ringFinishMaybe(seq, st)
		})
	})
}
