package gm

import (
	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sendToken is the firmware-side descriptor for one outgoing message,
// translated from a host send event — GM's "send token". A NIC owns as many
// as its ports have host-level send tokens: Send takes one off the NIC's
// free list, the descriptor carries the message from the host's post
// through the LANai's send-event processing into its connection's queue
// (step, bound once, so none of that allocates), and it goes back when the
// last packet is acknowledged.
type sendToken struct {
	port    *Port
	conn    *conn
	dst     fabric.NodeID
	dstPort PortID
	msgID   uint64
	data    []byte
	nextOff int // next byte offset to stage
	pending int // packets staged or in flight, not yet acked
	staged  bool
	// directed marks a remote-DMA put: region names the remote region and
	// base the starting write offset within it.
	directed bool
	region   RegionID
	base     int
	// onDone, when non-nil, runs after the host-level send token has been
	// returned — every packet is acknowledged.
	onDone func()

	seen bool   // the LANai has started on the send event
	step func() // run, bound once
}

func (t *sendToken) remaining() int { return len(t.data) - t.nextOff }

// allStaged reports whether every chunk has been handed to the DMA engine.
func (t *sendToken) allStaged() bool {
	return t.staged
}

// run is the descriptor's callback: the host's post has reached the NIC
// (queue the send-event processing), then that processing has finished
// (find the connection, name the message, join its queue).
func (t *sendToken) run() {
	if t.port == nil {
		panic("gm: send descriptor on the free list stepped")
	}
	n := t.port.nic
	if !t.seen {
		t.seen = true
		n.HW.CPUDo(n.Cfg.SendEventCost, t.step)
		return
	}
	t.conn = n.sendConn(t.port.id, t.dst, t.dstPort)
	t.msgID = n.NewMsgID()
	t.conn.enqueue(t)
}

// done completes the message: the host gets its send token back, and the
// descriptor returns to the NIC.
func (t *sendToken) done() {
	p, onDone := t.port, t.onDone
	*t = sendToken{step: t.step}
	p.nic.tokFree = append(p.nic.tokFree, t)
	p.ReturnSendToken()
	if onDone != nil {
		onDone()
	}
}

// conn is the sender-side reliability state for one connection: FIFO send
// queue, next sequence number, and the go-back-N send window over its one
// destination.
type conn struct {
	nic     *NIC
	key     connKey
	nextSeq uint32
	queue   []*sendToken
	staging int // packets between staging and record creation
	win     Window[*sendToken]
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
func (c *conn) enqueue(t *sendToken) {
	c.queue = append(c.queue, t)
	c.pump()
}

// windowOpen reports whether another packet may enter flight.
func (c *conn) windowOpen() bool {
	return c.win.Len()+c.staging < c.nic.Cfg.Window
}

// pump stages packets from the head token while the window allows: acquire
// a send buffer, SDMA the chunk from host memory, then hand the packet to
// the transmit engine. Stages are pipelined — the SDMA engine fills the
// next buffer while the transmit engine drains the previous one.
func (c *conn) pump() {
	for len(c.queue) > 0 && c.windowOpen() {
		t := c.queue[0]
		chunk := t.remaining()
		if chunk > c.nic.Cfg.MTU {
			chunk = c.nic.Cfg.MTU
		}
		fr := &Frame{
			Kind:    KindData,
			SrcPort: c.key.LocalP, DstPort: c.key.RemoteP,
			Seq:    c.nextSeq,
			MsgID:  t.msgID,
			MsgLen: len(t.data),
			Offset: t.nextOff,
		}
		if t.directed {
			fr.Kind = KindDirected
			fr.MsgID = uint64(t.region)
			fr.Offset = t.base + t.nextOff
		} else if c.nic.Cfg.PiggybackAcks {
			// Reverse-direction receiver state shares this connection's key
			// (mirrored port pair); a pending coalesced ack rides out in
			// this frame's header instead of a standalone ack packet.
			if r, ok := c.nic.rcvrs[c.key]; ok && r.hold.Absorb() {
				fr.Piggy = true
				fr.PiggyAck = r.expect - 1
				c.nic.m.acksPiggybacked.Inc()
			}
		}
		if chunk > 0 {
			fr.Payload = t.data[t.nextOff : t.nextOff+chunk]
		}
		c.nextSeq++
		t.nextOff += chunk
		t.pending++
		if t.remaining() == 0 {
			t.staged = true
			c.queue = popFront(c.queue)
		}
		c.staging++
		c.stage(fr, t)
	}
}

// stage moves one packet through buffer acquisition, SDMA, and transmit,
// on a descriptor (see desc.run's tx stages); when the transmit engine is
// done with the NIC buffer the packet's send record is filed.
func (c *conn) stage(fr *Frame, t *sendToken) {
	d := c.nic.newDesc(fr, txBuffer)
	d.conn, d.tok = c, t
	c.nic.HW.SendBufs.Acquire(&d.buf, d.step)
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
func (c *conn) retire(r *SendRecord[*sendToken]) {
	if !(c.sampled && c.nic.Cfg.AckCoalescing()) && c.win.Sample(r) {
		c.sampled = true
	}
	tok := r.Data
	tok.pending--
	if tok.allStaged() && tok.pending == 0 {
		tok.done()
	}
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
	nic.HW.CPUDo(nic.Cfg.RetransmitCost, func() {
		var buf lanai.Buf
		nic.HW.SendBufs.Acquire(&buf, func() {
			nic.HW.HostToNIC(len(fr.Payload), func() {
				nic.Inject(fr, c.key.Node, func() {
					buf.Release()
					c.win.Restamp(fr.Seq)
				})
			})
		})
	})
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
