package gm

import (
	"slices"

	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Token is the firmware-side descriptor for one outgoing message, translated
// from a host send event — GM's "send token": a unicast send or a message
// the extension sends to one of its groups. A NIC owns as
// many as its ports have host-level send tokens: a post takes one off the
// NIC's free list, the token carries the message from the host's post through
// the LANai's send-event processing into its connection's queue — or, for a
// group, the extension's (Extension.Enqueue) — on its step, bound once, so
// none of that allocates; and it goes back when the last packet is
// acknowledged.
type Token struct {
	port    *Port
	conn    *conn
	dst     fabric.NodeID
	dstPort PortID
	group   GroupID // the extension's: the group the message goes to
	mcast   bool
	msgID   uint64
	data    []byte
	nextOff int // next byte offset to stage
	pending int // packets staged or in flight, not yet acked
	staged  bool
	// onEpoch, when non-nil, is told the group epoch the message stages in.
	onEpoch func(epoch uint32)

	seen bool   // the LANai has started on the send event
	step func() // run, bound once
}

// Group reports the group a message for the extension goes to.
func (t *Token) Group() GroupID { return t.group }

// Begun reports whether a chunk of the message has been staged.
func (t *Token) Begun() bool { return t.nextOff > 0 }

// StagesIn tells whoever posted the message the group epoch it stages in.
func (t *Token) StagesIn(epoch uint32) {
	if t.onEpoch != nil {
		t.onEpoch(epoch)
	}
}

// NextFrame cuts the message's next packet of at most mtu bytes, counts it
// pending, and reports whether it was the last; the frame, from the NIC's
// pool (NIC.NewFrame), carries the message framing (MsgID, MsgLen, Offset,
// Payload) and the caller fills in the rest.
func (t *Token) NextFrame(mtu int) (fr *Frame, last bool) {
	chunk := min(len(t.data)-t.nextOff, mtu)
	fr = t.port.nic.NewFrame()
	fr.MsgID, fr.MsgLen, fr.Offset = t.msgID, len(t.data), t.nextOff
	if chunk > 0 {
		fr.Payload = t.data[t.nextOff : t.nextOff+chunk]
	}
	t.nextOff += chunk
	t.pending++
	t.staged = t.nextOff == len(t.data)
	return fr, t.staged
}

// Acked completes one packet of the message; the last, once every packet has
// been staged, completes the message.
func (t *Token) Acked() {
	t.pending--
	if t.staged && t.pending == 0 {
		t.done()
	}
}

// run is the token's callback: the host's post has reached the NIC (queue
// the send-event processing), then that processing has finished (name the
// message and join its connection's queue, or its group's).
func (t *Token) run() {
	if t.port == nil {
		panic("gm: send token on the free list stepped")
	}
	n := t.port.nic
	if !t.seen {
		t.seen = true
		n.HW.CPUDo(n.Cfg.SendEventCost, t.step)
		return
	}
	t.msgID = n.newMsgID()
	if t.mcast {
		n.ext.Enqueue(t)
		return
	}
	t.conn = n.sendConn(t.port.id, t.dst, t.dstPort)
	t.conn.enqueue(t)
}

// done completes the message: the host gets its send token back, and the
// NIC's token returns to its free list.
func (t *Token) done() {
	p := t.port
	*t = Token{step: t.step}
	p.nic.tokFree = append(p.nic.tokFree, t)
	p.returnSendToken()
}

// conn is the sender-side reliability state for one connection: FIFO send
// queue, next sequence number, and the go-back-N send window over its one
// destination.
type conn struct {
	nic     *NIC
	key     connKey
	nextSeq uint32
	queue   []*Token
	staging int // packets between staging and record creation
	win     Window[*Token]
	// sampled marks that the cumulative ack being processed has already
	// fed the RTT estimator (see retire).
	sampled bool
	// Fused ack dispatch (ack economy): while one AckProcCost CPU event is
	// queued for this connection, later (n)acks fold their cumulative
	// values into fusedAck/fusedNack instead of scheduling more events, so
	// a burst of coalesced acks retires a whole window in one event with
	// no per-ack allocation.
	ackFuse   *lanai.Fuse
	fusedAck  uint32
	fusedNack bool
}

func newConn(n *NIC, k connKey) *conn {
	c := &conn{nic: n, key: k, nextSeq: 1}
	var ackBudget sim.Time
	if n.Cfg.AckCoalescing() {
		ackBudget = n.Cfg.EffectiveAckDelay()
	}
	c.win.Init(n.Engine(), &n.Cfg, ackBudget, &n.m.timeouts, c.resend, c.retire)
	c.win.Reset(1, 0)
	if n.Cfg.ackEconomy() {
		c.ackFuse = lanai.NewFuse(n.HW, c.dispatchFusedAck)
	}
	return c
}

// dispatchFusedAck drains the fused cumulative ack accumulated while the
// AckProcCost event sat in the CPU queue.
func (c *conn) dispatchFusedAck() {
	ack, nack := c.fusedAck, c.fusedNack
	c.fusedNack = false
	c.handleAck(ack)
	if nack {
		c.win.Nack()
	}
}

// enqueue admits a token and starts the pump.
func (c *conn) enqueue(t *Token) {
	c.queue = append(c.queue, t)
	c.pump()
}

// windowOpen reports whether another packet may enter flight.
func (c *conn) windowOpen() bool {
	return c.win.Len()+c.staging < c.nic.Cfg.Window
}

// pump stages packets from the head token while the window allows: acquire
// a send buffer, SDMA the chunk from host memory, then hand the packet to
// the transmit engine — on one descriptor per packet (Desc.run). Stages are
// pipelined: the SDMA engine fills the next buffer while the transmit engine
// drains the previous one. When the transmit engine is done with the NIC
// buffer the packet's send record is filed.
func (c *conn) pump() {
	for len(c.queue) > 0 && c.windowOpen() {
		t := c.queue[0]
		fr, last := t.NextFrame(c.nic.Cfg.MTU)
		fr.Kind, fr.SrcPort, fr.DstPort, fr.Seq = KindData, c.key.LocalP, c.key.RemoteP, c.nextSeq
		if c.nic.Cfg.PiggybackAcks {
			// Reverse-direction receiver state shares this connection's key
			// (mirrored port pair); a pending coalesced ack rides out in
			// this frame's header instead of a standalone ack packet.
			if r, ok := c.nic.rcvrs[c.key]; ok && r.hold.Absorb() {
				fr.Piggy = true
				fr.PiggyAck = r.expect - 1
				c.nic.m.acksPiggybacked.Inc()
			}
		}
		c.nextSeq++
		if last {
			c.queue = slices.Delete(c.queue, 0, 1)
		}
		c.staging++
		c.nic.txDesc(fr, t, c, 0, c.key.Node, c.nic.Cfg.TxSetupCost).load()
	}
}

// handleAck retires records with seq <= ack (cumulative), completes tokens
// whose last packet was acknowledged, and reopens the window. Only forward
// progress re-arms the timer: a re-send restamps its record when it leaves
// the NIC, and a duplicate ack must not turn that into a later deadline.
func (c *conn) handleAck(ack uint32) {
	c.sampled = false
	if c.win.Ack(0, ack) == 0 {
		return
	}
	c.win.Arm()
	c.pump()
}

// retire completes one acknowledged packet. Under ack coalescing one
// cumulative ack retires several records; only the oldest eligible one is
// RTT-sampled so the estimator sees the coalesce hold time once instead of
// averaging it down across the batch.
func (c *conn) retire(r *SendRecord[*Token]) {
	if !(c.sampled && c.nic.Cfg.AckCoalescing()) && c.win.Sample(r) {
		c.sampled = true
	}
	r.Data.Acked()
}

// resend retransmits one packet of a go-back-N round. Retransmission
// re-reads the message from registered host memory — GM recycles NIC
// buffers after transmit — and the record's send time moves to when the
// copy actually leaves the NIC.
func (c *conn) resend(fr *Frame, _ int) {
	nic := c.nic
	nic.m.retransmits.Inc()
	if nic.Trace.Enabled() {
		nic.Trace.Log(nic.Engine().Now(), nic.ID(), trace.Retrans, "go-back-N seq=%d to %v", fr.Seq, c.key.Node)
	}
	nic.resend(fr, c, c.key.Node)
}

// rcvr is the receiver-side state of a connection: the next expected
// sequence number, plus the delayed-ack hold when coalescing is on.
type rcvr struct {
	nic    *NIC
	key    connKey
	expect uint32
	hold   AckHold
}

// sendHeldAck emits the cumulative acknowledgment covering every held
// packet (the hold's emit).
func (r *rcvr) sendHeldAck() { r.sendAck(r.expect - 1) }

// sendAck emits a cumulative acknowledgment to the connection's sender. Acks
// are NIC-generated control packets (NIC.InjectCtl) and ride the same wire as
// data.
func (r *rcvr) sendAck(ack uint32) {
	r.nic.m.acksSent.Inc()
	r.emit(KindAck, ack)
}

// sendNack emits a negative acknowledgment carrying the last in-order
// sequence number, asking the sender to go back without waiting for its
// timer (fast recovery; GM-2 rejects out-of-sequence packets similarly).
func (r *rcvr) sendNack(lastGood uint32) {
	r.nic.m.nacksSent.Inc()
	r.emit(KindNack, lastGood)
}

func (r *rcvr) emit(kind Kind, ack uint32) {
	r.nic.InjectCtl(r.key.Node, fabric.Ctl{
		Kind:    uint8(kind),
		SrcPort: int32(r.key.LocalP), DstPort: int32(r.key.RemoteP),
		Ack: ack,
	})
}
