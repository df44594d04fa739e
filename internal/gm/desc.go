package gm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/lanai"
)

// desc is the firmware's packet descriptor: GM-2's "packet descriptor with
// a callback handler", one per packet the NIC is working on. It carries the
// packet through its receive path (first look on the LANai, then the RDMA
// that lands the payload in host memory), through an acknowledgment's turn
// on the processor, or through the send path (buffer, SDMA, transmit
// set-up, wire), and goes back to the NIC's free list when that is over. The
// one callback is bound when the descriptor is made and dispatches on stage,
// so a packet schedules its steps without allocating.
type desc struct {
	nic  *NIC
	fr   *Frame        // the data frame; an acknowledgment's descriptor has none
	src  fabric.NodeID // receive: the NIC the packet came from
	buf  lanai.Buf
	asm  *Assembly  // receive: where the payload lands
	conn *conn      // send: the packet's connection; ack: the one it acknowledges
	tok  *sendToken // send: the message it is a chunk of
	step func()     // run, bound once

	ack   uint32 // ack: the cumulative sequence number, copied out of the packet
	nack  bool   // ack: it is a negative one
	stage stage
}

// stage says what a descriptor's next step is.
type stage uint8

const (
	onFreeList stage = iota // nobody holds the descriptor
	rxLook                  // receive processing of an arrived data frame is due
	rxLanded                // the payload's RDMA into host memory has finished
	rxAckTurn               // an acknowledgment's turn on the LANai has come
	txBuffer                // a send buffer has been granted
	txLoaded                // the chunk's SDMA into the buffer has finished
	txReady                 // transmit set-up is done: put it on the wire
	txLeft                  // the transmit engine is done with the buffer
)

// newDesc takes a descriptor off the free list, or makes one, for fr (nil
// for an acknowledgment) at stage st.
func (n *NIC) newDesc(fr *Frame, st stage) *desc {
	var d *desc
	if k := len(n.descFree); k > 0 {
		d = n.descFree[k-1]
		n.descFree = n.descFree[:k-1]
	} else {
		d = &desc{nic: n}
		d.step = d.run
	}
	d.fr, d.stage = fr, st
	return d
}

// free returns the descriptor to the NIC, blank but for its binding. Its
// buffer must already be back.
func (d *desc) free() {
	*d = desc{nic: d.nic, step: d.step}
	d.nic.descFree = append(d.nic.descFree, d)
}

// drop ends a refused packet: receive buffer and descriptor go back together.
func (d *desc) drop() {
	d.buf.Release()
	d.free()
}

// run is every descriptor's callback.
func (d *desc) run() {
	switch d.stage {
	case onFreeList:
		panic(fmt.Sprintf("gm: packet descriptor on the free list stepped at %v", d.nic.ID()))
	case rxLook:
		d.rxData()
	case rxLanded:
		d.buf.Release()
		asm, fr := d.asm, d.fr
		d.free()
		asm.Deposit(fr.Offset, fr.Payload)
	case rxAckTurn:
		c, ack, nack := d.conn, d.ack, d.nack
		d.free()
		c.nic.countAck(nack)
		c.handleAck(ack)
		if nack {
			c.win.Nack()
		}
	case txBuffer:
		d.stage = txLoaded
		d.nic.HW.HostToNIC(len(d.fr.Payload), d.step)
	case txLoaded:
		d.stage = txReady
		d.nic.HW.CPUDo(d.nic.Cfg.TxSetupCost, d.step)
	case txReady:
		d.stage = txLeft
		d.nic.Inject(d.fr, d.conn.key.Node, d.step)
	case txLeft:
		d.buf.Release()
		c, fr, tok := d.conn, d.fr, d.tok
		d.free()
		c.nic.m.dataSent.Inc()
		c.staging--
		c.win.File(fr, tok)
		c.pump()
	}
}
