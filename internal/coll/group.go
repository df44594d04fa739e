package coll

import (
	"slices"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// ctlNack in a collective acknowledgment's Offset marks a negative
// acknowledgment: the receiver saw a hole in the stream (Config.EnableNacks).
const ctlNack int32 = 1

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

	// The entry's reliable streams, one per peer each way: the send window
	// to every NIC it has sent to, and what it has accepted from every NIC
	// it has heard from. A NIC has a handful of collective peers, so the
	// lists are scanned, not hashed.
	sends []*sendStream
	recvs []recvStream

	// Dissemination barrier. recvdCur/recvdNext are per-round arrival
	// bitmasks for the current instance and the next (a peer can run at
	// most one instance ahead — it cannot complete instance s+1 before
	// every member, us included, has entered s+1).
	barSeq              uint32
	barRound            int
	barActive           bool
	rounds              int
	recvdCur, recvdNext uint32

	// Tree barrier: child arrivals counted for the current instance and
	// the next.
	upCur, upNext int

	// Reduce instances in flight.
	redSeq uint32
	red    map[uint32]*reduceInst

	// Tree allgather: open instances, per-(child, instance) chunk
	// reassembly, and per-instance outgoing batch transfers.
	agSeq uint32
	ag    map[uint32]*gatherInst
	asm   map[asmKey][]byte
	agOut map[uint32]*gatherSend

	// Ring allgather instances.
	ring map[uint32]*ringInst
}

// sendStream is a group entry's reliable stream to one other NIC — a
// dissemination partner, a tree parent or child, or the ring successor: gm's
// go-back-N window over one child, as a unicast connection is. Every frame
// is filed until the peer's cumulative ack covers it, and the window's
// timer, backoff and nack hold-off recover a loss.
type sendStream struct {
	g    *Group
	node fabric.NodeID
	next uint32 // sequence number of the next frame sent
	win  gm.Window[struct{}]
}

// recvStream is the stream back from one peer: the last sequence number
// accepted from it, so every collective frame reaches collective logic
// exactly once and in order.
type recvStream struct {
	node  fabric.NodeID
	acked uint32 // last sequence number accepted, the cumulative ack
	// held counts accepted gather chunks whose ack is withheld under the
	// ack economy (gm.Config.AckEvery).
	held uint32
}

// send transmits one collective frame to a peer and files it in the
// peer's window. The filed frame carries everything its retirement needs:
// kind, instance (MsgID) and chunk.
func (g *Group) send(to fabric.NodeID, fr *gm.Frame) {
	s := g.sendTo(to)
	if s == nil {
		nic := g.eng.nic
		s = &sendStream{g: g, node: to, next: 1}
		s.win.Init(nic.Engine(), &nic.Cfg, 0, &g.eng.m.timeouts, s.resend, s.retire)
		s.win.Reset(1, 0)
		g.sends = append(g.sends, s)
	}
	fr.Group, fr.Seq = g.id, s.next
	s.next++
	g.eng.nic.Inject(fr, to, nil)
	s.win.File(fr, struct{}{})
}

// resend puts a filed frame back on the wire, as its first send did.
func (s *sendStream) resend(fr *gm.Frame, _ int) {
	s.g.eng.m.retransmits.Inc()
	s.g.eng.nic.Inject(fr, s.node, nil)
}

// retire runs once the peer has acknowledged a frame: the tree allgather
// sends its batch's next chunk, the ring its next hop. Sending from here is
// sound: the window files the new frame behind the ones it is retiring.
func (s *sendStream) retire(r *gm.SendRecord[struct{}]) {
	s.win.Sample(r)
	switch fr := r.Frame; fr.Kind {
	case gm.KindGather:
		s.g.gatherChunkAcked(uint32(fr.MsgID), len(fr.Payload))
	case gm.KindRing:
		s.g.ringHopAcked(uint32(fr.MsgID))
	}
}

// accept is the receive gate every collective frame for an installed entry
// passes. An in-sequence frame is accepted and acknowledged cumulatively;
// under the ack economy a gather chunk's ack waits for AckEvery chunks or
// the batch's last, and since the sender keeps exactly AckEvery chunks in
// flight nothing else waits on it. An old frame is re-acknowledged and
// counted as a duplicate; a frame past a hole is dropped, with a nack under
// EnableNacks. Only accepted frames reach collective logic.
func (g *Group) accept(src fabric.NodeID, fr *gm.Frame) bool {
	r := g.recvFrom(src)
	cfg := &g.eng.nic.Cfg
	ackKind := fr.Kind + 1 // each collective kind's ack kind follows it
	accepted := fr.Seq == r.acked+1
	switch {
	case accepted:
		r.acked++
		if fr.Kind == gm.KindGather && cfg.AckCoalescing() &&
			int(r.held)+1 < cfg.AckEvery && fr.Offset+len(fr.Payload) < fr.MsgLen {
			r.held++
			break
		}
		g.ack(r, ackKind, false)
	case gm.SeqLEQ(fr.Seq, r.acked):
		g.eng.m.duplicates.Inc()
		g.ack(r, ackKind, false)
	default:
		g.eng.m.duplicates.Inc()
		if cfg.EnableNacks {
			g.ack(r, ackKind, true)
		}
	}
	return accepted
}

// sendTo returns the stream to node, or nil before the first send.
func (g *Group) sendTo(node fabric.NodeID) *sendStream {
	for _, s := range g.sends {
		if s.node == node {
			return s
		}
	}
	return nil
}

// recvFrom returns the stream from node, opening it on the first frame.
func (g *Group) recvFrom(node fabric.NodeID) *recvStream {
	for i := range g.recvs {
		if g.recvs[i].node == node {
			return &g.recvs[i]
		}
	}
	g.recvs = append(g.recvs, recvStream{node: node})
	return &g.recvs[len(g.recvs)-1]
}

// ack sends a peer a cumulative acknowledgment of everything accepted from
// it — or a nack asking it to go back now — covering any held acks.
func (g *Group) ack(r *recvStream, kind gm.Kind, nack bool) {
	e := g.eng
	if r.held > 0 {
		e.m.acksSuppressed.Add(uint64(r.held))
		r.held = 0
	}
	c := fabric.Ctl{Kind: uint8(kind), Group: uint32(g.id), Ack: r.acked}
	if nack {
		c.Offset = ctlNack
	}
	e.nic.InjectCtl(r.node, c)
}

// rxAck handles any collective (n)ack kind: retire what the cumulative
// field covers in the peer's window, then go back at once on a nack.
func (e *Engine) rxAck(src fabric.NodeID, c fabric.Ctl) {
	e.queues().acks.do(e.nic, e.nic.Cfg.AckProcCost, ackTask{e, src, c})
}

// ackTask is one collective (n)ack awaiting its turn on the LANai.
type ackTask struct {
	e   *Engine
	src fabric.NodeID
	c   fabric.Ctl
}

func (t ackTask) run() {
	g, ok := t.e.groups[gm.GroupID(t.c.Group)]
	if !ok {
		return // stale ack for a group we no longer know
	}
	s := g.sendTo(t.src)
	if s == nil {
		return
	}
	if s.win.Ack(0, t.c.Ack) > 0 {
		s.win.Arm()
	}
	if t.c.Offset == ctlNack {
		s.win.Nack()
	}
}

// cpuFIFO hands the LANai tasks of one kind without a closure per task: a
// task is queued here, and one callback, made on first use, runs the
// oldest. The LANai CPU completes its work in the order it was queued, so
// the task whose turn has come is always the oldest queued.
type cpuFIFO[T interface{ run() }] struct {
	tasks []T
	next  func()
}

// do charges cost on the LANai CPU and runs task when it completes.
func (q *cpuFIFO[T]) do(nic *gm.NIC, cost sim.Time, task T) {
	if q.next == nil {
		q.next = func() {
			t := q.tasks[0]
			q.tasks = slices.Delete(q.tasks, 0, 1)
			t.run()
		}
	}
	q.tasks = append(q.tasks, task)
	nic.HW.CPUDo(cost, q.next)
}
