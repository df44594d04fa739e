package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/lanai"
)

// desc is the extension's packet descriptor — GM-2's "packet descriptor
// with a callback handler", the thing the paper's multisend and forwarding
// are built on: one per packet the NIC is working on, holding the packet's
// NIC buffer, taken from a per-NIC free list and returned to it when the
// buffer's last use is over. It has two callbacks, each bound the first time
// it is needed and dispatching on the descriptor's state, so no step of a
// packet's life allocates:
//
//   - rx, the receive handler: first look at an arrived frame (sequence check,
//     token match, ack), then the deposit once the payload's RDMA into host
//     memory has finished; for an arrived ack or nack — which has no frame: the
//     few header fields it consists of were copied out of the packet — the
//     window update when its turn on the LANai comes;
//   - tx, the transmit handler: staging (send buffer, SDMA, set-up) for a
//     packet that starts in host memory, then the replica chain — transmit to
//     one child and, when that replica has left, "change the packet header
//     and queue it for transmission again" for the next.
//
// A forwarded packet runs both at once (the deposit and the replica chain
// share the receive buffer), which is why there are two and not one; there
// are not more because a free list is live heap at its high-water mark on
// every NIC (DESIGN.md §7).
type desc struct {
	ext *Ext
	fr  *gm.Frame     // the data frame; nil for an ack or nack
	src fabric.NodeID // from the wire: the NIC that transmitted the packet
	buf lanai.Buf
	g   *group
	asm *gm.Assembly // from the wire: where the payload lands
	tok *mcastToken  // from the root's host: the message this is a chunk of

	// An ack's or nack's content (from == fromChild).
	group gm.GroupID
	epoch uint32
	ack   uint32
	nack  bool

	from   origin
	landed bool    // rx: the payload is in host memory (else: first look)
	txs    txStage // tx: what the next call does
	uses   uint8   // holders of buf; the descriptor is freed with the last
	child  int32   // replica chain: index of the child being served

	rx, tx func()
}

// origin says where a descriptor's packet came from, which decides what its
// replica chain owes when the last replica has left.
type origin uint8

const (
	onFreeList origin = iota // nobody holds the descriptor
	fromWire                 // arrived from the parent; forwarded out of its receive buffer
	fromRoot                 // a chunk of a host send at the root
	fromHost                 // re-read from the host replica (store-and-forward ablation)
	fromChild                // an ack or nack from a child: no frame, no buffer
)

// txStage is the transmit handler's state.
type txStage uint8

const (
	txBuffer txStage = iota // a send buffer has been granted
	txLoaded                // the chunk's SDMA into the buffer has finished
	txReady                 // set-up is done: join the group's replica chains
	txSend                  // transmit the replica for d.child
	txLeft                  // that replica has left the NIC
)

// newDesc takes a descriptor off the free list, or makes one, for fr (nil
// when from is fromChild).
func (e *Ext) newDesc(fr *gm.Frame, from origin) *desc {
	var d *desc
	if k := len(e.descFree); k > 0 {
		d = e.descFree[k-1]
		e.descFree = e.descFree[:k-1]
	} else {
		d = &desc{ext: e}
		e.descMade++
	}
	d.fr, d.from = fr, from
	return d
}

// free returns the descriptor to its NIC, blank but for its bindings. Its
// buffer must already be back.
func (d *desc) free() {
	*d = desc{ext: d.ext, rx: d.rx, tx: d.tx}
	d.ext.descFree = append(d.ext.descFree, d)
}

// drop ends a packet nothing else holds: buffer and descriptor go back
// together.
func (d *desc) drop() {
	d.buf.Release()
	d.free()
}

// unref ends one use of the packet's buffer, and the packet with the last.
func (d *desc) unref() {
	d.uses--
	if d.uses == 0 {
		d.drop()
	}
}

func (d *desc) rxFn() func() {
	if d.rx == nil {
		d.rx = d.rxStep
	}
	return d.rx
}

func (d *desc) txFn() func() {
	if d.tx == nil {
		d.tx = d.txStep
	}
	return d.tx
}

// live panics when a callback fires for a descriptor nobody holds.
func (d *desc) live() {
	if d.from == onFreeList {
		panic(fmt.Sprintf("core: packet descriptor on the free list stepped at %v", d.ext.nic.ID()))
	}
}

// rxStep is the receive handler.
func (d *desc) rxStep() {
	d.live()
	switch {
	case d.from == fromChild:
		d.ext.ackStep(d)
	case d.landed:
		d.asm.Deposit(d.fr.Offset, d.fr.Payload)
		d.unref()
	default:
		d.ext.look(d)
	}
}

// txStep is the transmit handler.
func (d *desc) txStep() {
	d.live()
	e, g := d.ext, d.g
	hw := e.nic.HW
	switch d.txs {
	case txBuffer:
		d.txs = txLoaded
		hw.HostToNIC(len(d.fr.Payload), d.tx)
	case txLoaded:
		d.txs = txReady
		cost := e.nic.Cfg.TxSetupCost
		if d.from == fromHost {
			cost = e.cfg.ForwardSetupCost
		}
		hw.CPUDo(cost, d.tx)
	case txReady:
		g.enqueueChain(d)
	case txSend:
		// The header rewrite between replicas changes only where the packet
		// goes, which is the wire packet's business: every child is sent
		// the frame itself — at a forwarder, the one its parent sent it.
		d.txs = txLeft
		e.nic.Inject(d.fr, g.children[d.child], d.tx)
	case txLeft:
		e.m.mcastSent.Inc()
		if d.from != fromRoot {
			e.m.mcastForwarded.Inc()
		}
		if int(d.child)+1 == len(g.children) {
			d.lastReplicaLeft()
			return
		}
		e.m.headerRewrites.Inc()
		d.child++
		d.txs = txSend
		hw.CPUDo(e.cfg.HeaderRewriteCost, d.tx)
	}
}

// startChain begins the packet's replica chain: it is the group's turn to
// transmit this packet to every child in tree order from its one NIC buffer.
func (d *desc) startChain() {
	if d.from == fromRoot {
		d.ext.m.fanout.Observe(int64(len(d.g.children)))
		if len(d.g.children) == 0 {
			d.lastReplicaLeft()
			return
		}
	}
	d.txs = txSend
	d.txStep()
}

// lastReplicaLeft ends the replica chain: the transmit engine is done with
// the buffer, and one send record covering every child is filed. A packet
// that came from host memory gives its send buffer back and lets the group's
// next chain run. A packet forwarded from the wire gives up the chain's use
// of the receive buffer — unless the RetransmitHoldBuffer ablation pins it
// until every child has acknowledged, in which case the send record takes
// that use over.
func (d *desc) lastReplicaLeft() {
	g, fr := d.g, d.fr
	g.staging--
	switch d.from {
	case fromWire:
		if d.ext.cfg.Retransmit == RetransmitHoldBuffer {
			g.file(fr, mcastSent{held: d})
			return
		}
		d.unref()
		g.file(fr, mcastSent{})
	case fromRoot:
		tok := d.tok
		d.drop()
		g.file(fr, mcastSent{tok: tok})
		g.nextChain()
		g.pump()
	case fromHost:
		d.drop()
		g.file(fr, mcastSent{})
		g.nextChain()
	}
}
