package gm

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/sim"
)

// Desc is the firmware's packet descriptor: GM-2's "packet descriptor with a
// callback handler", one per packet the NIC is working on, unicast or the
// extension's. It carries the packet through its receive path (first look on
// the LANai, then the RDMA that lands the payload in host memory), through an
// acknowledgment's turn on the processor, or through the send path (buffer,
// SDMA, set-up, wire), and goes back to the NIC's one free list when that is
// over. The one callback is bound when the descriptor is made and dispatches
// on stage, so a packet schedules its steps without allocating.
//
// Where unicast and the multicast extension differ the stage machine calls
// the extension's slot (Extension.Look, Left, AckTurn); for unicast it does
// not. A forwarded multicast packet is on both paths at once — its payload
// landing in host memory while its replicas go out — which is why a landing
// is not a stage but an entry in the NIC's RDMA queue (NIC.land).
type Desc struct {
	nic  *NIC
	fr   *Frame        // the data frame; an acknowledgment's descriptor has none
	peer fabric.NodeID // from the wire: the NIC that sent the packet; to it: where it goes
	buf  lanai.Buf
	asm  *Assembly // where the payload lands
	tok  *Token    // the message the packet is a chunk of
	conn *conn     // unicast: the packet's connection, or the one an ack acknowledges
	step func()    // run, bound once
	// setup is what the LANai charges between the SDMA and the wire.
	setup sim.Time

	ack   uint32  // ack: the cumulative sequence number, copied out of the packet
	group GroupID // multicast ack: its group and epoch, likewise
	epoch uint32
	// child is the replica being sent: the index of its destination in the
	// sender's list (0 for unicast), or -1 before the extension has chosen one.
	child  int32
	stage  stage
	nack   bool  // ack: it is a negative one
	uses   uint8 // holders of buf: the landing, the transmit side
	resend bool  // a go-back-N copy: read from host memory again, no set-up
}

// stage says what a descriptor's next step is.
type stage uint8

const (
	onFreeList stage = iota // nobody holds the descriptor
	rxLook                  // receive processing of an arrived data frame is due
	ackTurn                 // an acknowledgment's turn on the LANai has come
	txPost                  // the LANai is done with the packet's own processing: get a buffer
	txBuffer                // a send buffer has been granted
	txLoaded                // the chunk's SDMA into the buffer has finished
	txReady                 // set-up (or a header rewrite) is done: put it on the wire
	txLeft                  // the transmit engine is done with the buffer
)

// newDesc takes a descriptor off the free list, or makes one, for fr (nil
// for an acknowledgment) at stage st. The descriptor holds fr until free.
func (n *NIC) newDesc(fr *Frame, st stage) *Desc {
	var d *Desc
	if k := len(n.descFree); k > 0 {
		d = n.descFree[k-1]
		n.descFree = n.descFree[:k-1]
	} else {
		d = &Desc{nic: n}
		d.step = d.run
		n.descMade++
	}
	if fr != nil {
		fr.Hold()
	}
	d.fr, d.stage = fr, st
	return d
}

// Descriptors reports how many packet descriptors sit on the NIC's free list
// and how many it ever made: equal on an idle NIC, whatever the packets were.
func (n *NIC) Descriptors() (free, made int) { return len(n.descFree), n.descMade }

// free returns the descriptor to the NIC, blank but for its binding, and
// releases its frame. Its buffer must already be back.
func (d *Desc) free() {
	if d.fr != nil {
		d.fr.Release()
	}
	*d = Desc{nic: d.nic, step: d.step}
	d.nic.descFree = append(d.nic.descFree, d)
}

// Done ends one holder's use of the packet's buffer; the last returns buffer
// and descriptor together.
func (d *Desc) Done() {
	d.uses--
	if d.uses == 0 {
		d.buf.Release()
		d.free()
	}
}

// Frame returns the packet's frame.
func (d *Desc) Frame() *Frame { return d.fr }

// Src reports the NIC an arrived packet came from.
func (d *Desc) Src() fabric.NodeID { return d.peer }

// Token returns the message a packet from host memory is a chunk of (nil for
// a packet that arrived from the wire, and for a retransmission).
func (d *Desc) Token() *Token { return d.tok }

// Child reports the index of the destination the last replica went to, or -1
// when none has gone yet.
func (d *Desc) Child() int { return int(d.child) }

// Forwarded reports whether the packet arrived from the wire.
func (d *Desc) Forwarded() bool { return d.asm != nil }

// Resent reports whether the packet is a go-back-N retransmission.
func (d *Desc) Resent() bool { return d.resend }

// Land RDMAs an accepted packet's payload into asm; the landing then ends its
// use of the buffer. With forward the transmit side is a second holder.
func (d *Desc) Land(asm *Assembly, forward bool) {
	d.asm, d.uses = asm, 1
	if forward {
		d.uses++
	}
	n := d.nic
	n.landing = append(n.landing, d)
	n.HW.NICToHost(len(d.fr.Payload), n.landFn)
}

// land deposits the payload whose RDMA has just finished: the RDMA engine is
// FIFO, so that is the oldest one queued.
func (n *NIC) land() {
	d := n.landing[0]
	n.landing = slices.Delete(n.landing, 0, 1)
	d.asm.Deposit(d.fr.Offset, d.fr.Payload)
	d.Done()
}

// Send puts the packet on the wire to dst, the sender's child-th
// destination; Left runs when the transmit engine is done with it.
func (d *Desc) Send(child int, dst fabric.NodeID) {
	d.child, d.peer, d.stage = int32(child), dst, txLeft
	d.nic.Inject(d.fr, dst, d.step)
}

// SendAfter is Send once the LANai has spent cost on the packet — the
// header rewrite between replicas, or a forwarder's set-up.
func (d *Desc) SendAfter(cost sim.Time, child int, dst fabric.NodeID) {
	d.child, d.peer, d.stage = int32(child), dst, txReady
	d.nic.HW.CPUDo(cost, d.step)
}

// txDesc makes the descriptor of a packet in host memory bound for dst (or,
// with child -1, for the extension to route) through connection c (nil for
// the extension's).
func (n *NIC) txDesc(fr *Frame, tok *Token, c *conn, child int, dst fabric.NodeID, setup sim.Time) *Desc {
	d := n.newDesc(fr, txBuffer)
	d.tok, d.conn, d.child, d.peer, d.setup, d.uses = tok, c, int32(child), dst, setup, 1
	return d
}

// load starts d's path from host memory: buffer, SDMA, set-up, wire.
func (d *Desc) load() { d.nic.HW.SendBufs.Acquire(&d.buf, d.step) }

// after starts d's path once the LANai has spent cost on it first.
func (d *Desc) after(cost sim.Time) {
	d.stage = txPost
	d.nic.HW.CPUDo(cost, d.step)
}

// Stage takes a packet of the extension's from host memory through buffer,
// SDMA and setup; then Left routes it (Child -1).
func (n *NIC) Stage(fr *Frame, tok *Token, setup sim.Time) {
	n.txDesc(fr, tok, nil, -1, 0, setup).load()
}

// StageTo sends a packet of the extension's from host memory to one
// destination, dst, the child-th: a send token of its own, so the send-event
// processing first, then buffer, SDMA, set-up and wire; then Left.
func (n *NIC) StageTo(fr *Frame, tok *Token, child int, dst fabric.NodeID) {
	n.txDesc(fr, tok, nil, child, dst, n.Cfg.TxSetupCost).after(n.Cfg.SendEventCost)
}

// Resend retransmits a packet of the extension's to dst: the retransmission
// processing, a buffer, the payload read from host memory again, the wire;
// then Left.
func (n *NIC) Resend(fr *Frame, dst fabric.NodeID) { n.resend(fr, nil, dst) }

func (n *NIC) resend(fr *Frame, c *conn, dst fabric.NodeID) {
	d := n.txDesc(fr, nil, c, 0, dst, 0)
	d.resend = true
	d.after(n.Cfg.RetransmitCost)
}

// run is every descriptor's callback.
func (d *Desc) run() {
	n := d.nic
	switch d.stage {
	case onFreeList:
		panic(fmt.Sprintf("gm: packet descriptor on the free list stepped at %v", n.ID()))
	case rxLook:
		if d.fr.Kind == KindMcastData {
			n.ext.Look(d)
		} else {
			d.rxData()
		}
	case ackTurn:
		c, src, group, epoch, ack, nack := d.conn, d.peer, d.group, d.epoch, d.ack, d.nack
		d.free()
		if c == nil {
			n.ext.AckTurn(src, group, epoch, ack, nack)
			return
		}
		n.countAck(nack)
		c.handleAck(ack)
		if nack {
			c.win.Nack()
		}
	case txPost:
		d.stage = txBuffer
		d.load()
	case txBuffer:
		d.stage = txLoaded
		n.HW.HostToNIC(len(d.fr.Payload), d.step)
	case txLoaded:
		if d.resend {
			d.Send(int(d.child), d.peer)
			return
		}
		d.stage = txReady
		n.HW.CPUDo(d.setup, d.step)
	case txReady:
		if d.child < 0 {
			n.ext.Left(d)
			return
		}
		d.Send(int(d.child), d.peer)
	case txLeft:
		c := d.conn
		if c == nil {
			n.ext.Left(d)
			return
		}
		fr, tok := d.fr, d.tok
		if d.resend {
			seq := fr.Seq
			d.Done()
			c.win.Restamp(seq)
			return
		}
		// The descriptor may be the frame's last holder (the packet can
		// have been dropped already), so the frame is held across its
		// hand-over to the send record.
		fr.Hold()
		d.Done()
		n.m.dataSent.Inc()
		c.staging--
		c.win.File(fr, tok)
		fr.Release()
		c.pump()
	}
}
