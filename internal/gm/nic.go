package gm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Extension is the firmware extension hook. The paper's contribution is a
// modification of GM firmware; package core implements this interface and
// installs itself with NIC.SetExtension. Its packets run on the same
// descriptors and send tokens as unicast's, through the same stage machine;
// the extension fills the slot that machine leaves empty for unicast:
//
//   - Look, the receive look: an arrived multicast data frame's processing
//     on the LANai (group table, sequence and epoch checks, ack, forward);
//   - Left, transmit left: the transmit engine is done with one replica of
//     the packet (next replica, or the last one gone) — and, for a packet
//     staged without a destination, the set-up is done and none has left yet
//     (Desc.Child -1);
//   - AckTurn, the ack turn: a group acknowledgment's processing.
//
// Enqueue is the send token's counterpart: a message posted to a group
// (Port.SendGroup) has had its send-event processing and joins the group.
type Extension interface {
	// HandleRx sees every frame arriving from the wire before the base
	// protocol does; src is the NIC that transmitted the packet. Returning
	// true consumes the frame.
	HandleRx(src fabric.NodeID, fr *Frame) bool
	// HandleCtl is HandleRx for a control packet, whose header arrives by
	// value.
	HandleCtl(src fabric.NodeID, c fabric.Ctl) bool

	Look(d *Desc)
	Left(d *Desc)
	AckTurn(child fabric.NodeID, group GroupID, epoch, ack uint32, nack bool)
	Enqueue(t *Token)
}

// NIC is the GM firmware state for one lanai NIC.
type NIC struct {
	HW  *lanai.NIC
	Cfg Config

	// Trace, when non-nil, records protocol events for timeline rendering.
	Trace *trace.Recorder

	// ports are the open ports, a handful at most, so a lookup scans them.
	// conns (sender-side connections) and rcvrs (receiver-side connection
	// state) are made by the NIC's first unicast: a NIC that only takes
	// part in multicasts and collectives never builds either table.
	ports []*Port
	conns map[connKey]*conn
	rcvrs map[connKey]*rcvr
	ext   Extension
	m     *instruments

	// descFree holds the packet descriptors not in use (descMade counts
	// every one ever made), tokFree the send tokens. Each grows to the most
	// packets (messages) this NIC ever worked on at once, unicast and the
	// extension's together, and no further.
	descFree []*Desc
	descMade int
	tokFree  []*Token
	landing  []*Desc // payloads on their way to host memory, in RDMA order
	landFn   func()  // land, bound once

	// groupEvents are firmware-generated events whose records are on their
	// way to host memory; groupPost (landGroupEvent, bound on first use) is
	// what each record's DMA runs on landing.
	groupEvents []groupEvent
	groupPost   func()

	// spares are the host buffers its ports have taken back or released,
	// made with the first one; ShareSpares points it at a pool another
	// NIC on the engine made.
	spares *spares

	nextMsgID uint64
}

// connKey identifies a connection endpoint pair. On the send side Node is
// the remote destination; on the receive side it is the remote source.
type connKey struct {
	Node            fabric.NodeID
	LocalP, RemoteP PortID
}

// NewNIC loads the GM firmware onto a hardware NIC. Protocol counters are
// filed in the registry wired via hw.SetMetrics; when none is wired, the
// NIC counts into a block of its own.
func NewNIC(hw *lanai.NIC, cfg Config) *NIC {
	n := &NIC{HW: hw, Cfg: cfg}
	n.m = metrics.Attach[instruments](hw.Registry(), Component, int(hw.ID))
	n.landFn = n.land
	hw.RxDispatch = n.rxDispatch
	return n
}

// ID reports the NIC's network ID.
func (n *NIC) ID() fabric.NodeID { return n.HW.ID }

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.HW.Eng }

// SetExtension installs a firmware extension (at most one).
func (n *NIC) SetExtension(e Extension) {
	if n.ext != nil {
		panic(ErrExtensionInstalled)
	}
	n.ext = e
}

// Extension returns the installed firmware extension, if any.
func (n *NIC) Extension() Extension { return n.ext }

// OpenPort creates a host communication endpoint. Each simulated process
// opens its own port; GM's memory protection between ports is implicit in
// the model: a port reads and writes only the buffers of the events it
// receives. A buffer another port has taken back may serve its next message
// (see ShareSpares), but only once no holder can still read it.
func (n *NIC) OpenPort(id PortID) *Port {
	if n.port(id) != nil {
		panic(fmt.Errorf("%w: port %d on %v", ErrPortInUse, id, n.ID()))
	}
	p := newPort(n, id)
	n.ports = append(n.ports, p)
	return p
}

// ShareSpares makes n keep its spare host buffers in with's pool, so every
// port of either NIC lands messages in buffers a port of the other has taken
// back. The two must run on one engine: the pool is touched without a lock,
// by that engine's events and processes alone.
func (n *NIC) ShareSpares(with *NIC) {
	if n.Engine() != with.Engine() {
		panic(fmt.Sprintf("gm: %v and %v run on different engines and cannot share spares", n.ID(), with.ID()))
	}
	n.spares = with.pool()
}

// pool returns the NIC's spares, made on first use.
func (n *NIC) pool() *spares {
	if n.spares == nil {
		n.spares = new(spares)
	}
	return n.spares
}

// DropHostBuffers makes each port forget its lent event, never to reuse it,
// and empties the NIC's pool of spare buffers and frames, which NICs sharing
// it lose too: for when nothing is in flight, as at the end of a run.
func (n *NIC) DropHostBuffers() {
	for _, p := range n.ports {
		p.lent = nil
	}
	n.spares.drop()
}

// Port returns an open port.
func (n *NIC) Port(id PortID) *Port {
	p := n.port(id)
	if p == nil {
		panic(fmt.Errorf("%w: port %d on %v", ErrNoSuchPort, id, n.ID()))
	}
	return p
}

// port returns an open port, or nil.
func (n *NIC) port(id PortID) *Port {
	for _, p := range n.ports {
		if p.id == id {
			return p
		}
	}
	return nil
}

// OutstandingRecords reports unacknowledged send records summed over every
// sender-side connection — zero once all transmitted packets are acked.
// Invariant checkers use it to prove recovery actually completed.
func (n *NIC) OutstandingRecords() int {
	total := 0
	for _, c := range n.conns {
		total += c.win.Len() + c.staging
	}
	return total
}

// PendingRetransmitTimers reports how many connection retransmit timers are
// armed — nonzero after quiescence means a leaked timer.
func (n *NIC) PendingRetransmitTimers() int {
	armed := 0
	for _, c := range n.conns {
		if c.win.Armed() {
			armed++
		}
	}
	return armed
}

// PendingAckTimers reports how many receiver-side delayed-ack timers are
// armed — nonzero after quiescence means a coalesced ack was never
// flushed (a leaked timer under Config.AckEvery).
func (n *NIC) PendingAckTimers() int {
	armed := 0
	for _, r := range n.rcvrs {
		if r.hold.Armed() {
			armed++
		}
	}
	return armed
}

// newMsgID allocates a node-unique message identifier.
func (n *NIC) newMsgID() uint64 {
	n.nextMsgID++
	return n.nextMsgID
}

// Inject puts fr on the wire to dst; txDone (optional) fires when the
// transmit engine releases the packet buffer. The frame is written once and
// read-only from here on: the receiver, the send window and — for a
// multicast frame — every NIC further down the tree hold this same *Frame.
// The packet is one of its holders (see Frame), from here until the
// receiving NIC's dispatch returns or the fabric drops it; a fabric that
// copies the packet pins the frame. Exposed for the collective engine,
// which transmits through the same engine.
func (n *NIC) Inject(fr *Frame, dst fabric.NodeID, txDone func()) {
	fr.Hold()
	fr.seal(n.ID())
	if n.Trace.Enabled() {
		n.Trace.Log(n.Engine().Now(), n.ID(), trace.TX, "%s", fr.Wire(n.ID(), dst))
	}
	n.HW.Ifc.Send(dst, fr.wireSize(&n.Cfg), fr, fabric.Ctl{}, txDone)
}

// InjectCtl transmits a control packet — an acknowledgment — to dst. Its
// whole content is c, which rides in the fabric's packet by value: nothing
// is allocated, nothing is shared with the receiver, and a later
// acknowledgment cannot overwrite one still in flight. The unicast (n)ack
// uses Kind, SrcPort, DstPort and Ack; the group (n)ack Kind, Group, Epoch
// and Ack; a collective (n)ack Kind, Group, Ack and Offset. NIC-generated: no
// host memory is touched and no send buffer consumed.
func (n *NIC) InjectCtl(dst fabric.NodeID, c fabric.Ctl) {
	if n.Trace.Enabled() {
		n.Trace.Log(n.Engine().Now(), n.ID(), trace.TX, "%s", ctlWire(&c, n.ID(), dst))
	}
	n.HW.Ifc.Send(dst, n.Cfg.AckBytes, nil, c, nil)
}

// rxDispatch is the wire entry point: every arriving packet lands here. The
// packet is the fabric's and valid only during the call; what the receive
// path keeps is the frame (the sender's, read-only, under a hold of its own)
// or a copy of the control header, and the packet's source. The packet's
// hold on its frame ends when the dispatch returns.
func (n *NIC) rxDispatch(pkt *fabric.Packet) {
	src := pkt.Src
	if pkt.Payload == nil {
		c := pkt.Ctl
		if n.ext != nil && n.ext.HandleCtl(src, c) {
			return
		}
		switch k := Kind(c.Kind); {
		case k == KindAck || k == KindNack:
			n.rxAck(src, c)
		case (k == KindMcastAck || k == KindMcastNack) && n.ext != nil:
			d := n.newDesc(nil, ackTurn)
			d.peer, d.group, d.epoch, d.ack, d.nack = src, GroupID(c.Group), c.Epoch, c.Ack, k == KindMcastNack
			n.HW.CPUDo(n.Cfg.AckProcCost, d.step)
		default:
			panic(fmt.Sprintf("gm: unhandled control packet kind %v at %v (no extension?)", k, n.ID()))
		}
		return
	}
	fr, ok := pkt.Payload.(*Frame)
	if !ok {
		panic(fmt.Sprintf("gm: non-frame payload %T at %v", pkt.Payload, n.ID()))
	}
	fr.verify(n.ID())
	switch {
	case n.ext != nil && n.ext.HandleRx(src, fr):
	case fr.Kind == KindData || fr.Kind == KindMcastData && n.ext != nil:
		n.rxData(src, fr)
	default:
		panic(fmt.Sprintf("gm: unhandled frame kind %v at %v (no extension?)", fr.Kind, n.ID()))
	}
	fr.Release()
}

// sendConn returns (creating on demand) the sender-side connection for the
// (local port, destination node, destination port) triple.
func (n *NIC) sendConn(localP PortID, dst fabric.NodeID, dstP PortID) *conn {
	k := connKey{Node: dst, LocalP: localP, RemoteP: dstP}
	c, ok := n.conns[k]
	if !ok {
		if n.conns == nil {
			n.conns = make(map[connKey]*conn)
		}
		c = newConn(n, k)
		n.conns[k] = c
	}
	return c
}

// recvConn returns (creating on demand) the receiver-side state for a
// (source node, source port, local port) triple.
func (n *NIC) recvConn(src fabric.NodeID, srcP, localP PortID) *rcvr {
	k := connKey{Node: src, LocalP: localP, RemoteP: srcP}
	r, ok := n.rcvrs[k]
	if !ok {
		r = &rcvr{nic: n, key: k, expect: 1}
		if n.Cfg.AckCoalescing() {
			r.hold.Init(n.Engine(), &n.Cfg, &n.m.acksSuppressed, r.sendHeldAck)
		}
		if n.rcvrs == nil {
			n.rcvrs = make(map[connKey]*rcvr)
		}
		n.rcvrs[k] = r
	}
	return r
}
