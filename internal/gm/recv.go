package gm

import "repro/internal/trace"

// traceDrop records a refused packet when tracing is enabled.
func (n *NIC) traceDrop(format string, args ...any) {
	if n.Trace.Enabled() {
		n.Trace.Log(n.Engine().Now(), n.ID(), trace.Drop, format, args...)
	}
}

// Receive-side firmware: sequence checking, receive-token matching,
// RDMA to host memory, and acknowledgment generation.

// rxData handles an arriving unicast data packet. The packet occupies a
// NIC receive buffer from wire arrival until its payload has been RDMA'd
// into the matched host buffer; a NIC with no free receive buffer drops
// the packet at the wire (go-back-N recovers it). Buffer and descriptor
// travel together: whichever path ends the packet returns both.
func (n *NIC) rxData(fr *Frame) {
	buf, ok := n.HW.RecvBufs.TryAcquire()
	if !ok {
		n.HW.CountRxNoBuffer()
		return
	}
	d := n.newDesc(fr, rxLook)
	d.buf = buf
	n.HW.CPUDo(n.Cfg.RecvProcCost, d.step)
}

// rxData is the receive processing of the descriptor's data frame: sequence
// check, receive-token match, acknowledgment, and the RDMA to host memory.
func (d *desc) rxData() {
	n, fr := d.nic, d.fr
	if fr.Piggy {
		// The frame carries the reverse direction's cumulative ack;
		// retire those send records inside this same CPU event — the
		// standalone ack's wire crossing and AckProcCost are the saving.
		n.sendConn(fr.DstPort, fr.SrcNode, fr.SrcPort).handleAck(fr.PiggyAck)
	}
	r := n.recvConn(fr.SrcNode, fr.SrcPort, fr.DstPort)
	port, open := n.ports[fr.DstPort]
	if !open {
		// No such port; silently dropping models a misdirected packet.
		d.drop()
		return
	}
	switch {
	case SeqBefore(fr.Seq, r.expect):
		// Duplicate of an already-accepted packet (its ack was lost, or
		// go-back-N resent it). Re-ack so the sender advances; the
		// immediate cumulative ack also covers anything coalesced.
		n.m.duplicates.Inc()
		n.traceDrop("duplicate seq=%d expect=%d", fr.Seq, r.expect)
		r.hold.Absorb()
		n.sendAck(fr, r.expect-1)
		d.drop()
	case SeqAfter(fr.Seq, r.expect):
		// Hole ahead of us: drop; the sender's timeout resends in
		// order. With fast recovery enabled, tell the sender now.
		n.m.oooDrops.Inc()
		n.traceDrop("out-of-order seq=%d expect=%d", fr.Seq, r.expect)
		if n.Cfg.EnableNacks {
			r.hold.Absorb()
			n.sendNack(fr, r.expect-1)
		}
		d.drop()
	default:
		asm, ok := port.matchAssembly(fr.SrcNode, fr.SrcPort, fr.MsgID, fr.MsgLen, fr.Group)
		if !ok {
			// In sequence but the host has posted no receive buffer
			// large enough. Don't ack: the sender will retransmit,
			// and accepting would violate ordered delivery. Providing
			// tokens in time is the client program's responsibility.
			n.m.noTokenDrops.Inc()
			n.traceDrop("no receive token for %d bytes", fr.MsgLen)
			d.drop()
			return
		}
		r.expect++
		n.m.dataReceived.Inc()
		if n.Trace.Enabled() {
			n.Trace.Log(n.Engine().Now(), n.ID(), trace.RX, "%v", fr)
		}
		if n.Cfg.AckCoalescing() {
			r.hold.Note()
		} else {
			n.sendAck(fr, fr.Seq)
		}
		d.asm, d.stage = asm, rxLanded
		n.HW.NICToHost(len(fr.Payload), d.step)
	}
}

// sendAck emits a cumulative acknowledgment for the connection the data
// frame arrived on. Acks are NIC-generated (no host memory touched, no
// send buffer consumed) and ride the same wire as data.
func (n *NIC) sendAck(data *Frame, ack uint32) {
	n.m.acksSent.Inc()
	n.Inject(&Frame{
		Kind:    KindAck,
		SrcNode: n.ID(), DstNode: data.SrcNode,
		SrcPort: data.DstPort, DstPort: data.SrcPort,
		Ack: ack,
	}, nil)
}

// rxAck handles an arriving unicast acknowledgment or negative
// acknowledgment: retire everything the cumulative field covers and, for a
// nack, go-back-N immediately (bounded by the per-connection holdoff so a
// burst of nacks triggers one resend). Under the ack economy the processing
// is fused per connection; otherwise each one takes its own turn on the
// LANai, carried by a descriptor.
func (n *NIC) rxAck(fr *Frame) {
	if n.Cfg.ackEconomy() {
		n.countAck(fr)
		n.fuseAck(fr, fr.Kind == KindNack)
		return
	}
	n.HW.CPUDo(n.Cfg.AckProcCost, n.newDesc(fr, rxLook).step)
}

// rxAck is the processing of the descriptor's (negative) acknowledgment.
func (d *desc) rxAck() {
	n, fr := d.nic, d.fr
	d.free()
	n.countAck(fr)
	c := n.sendConn(fr.DstPort, fr.SrcNode, fr.SrcPort)
	c.handleAck(fr.Ack)
	if fr.Kind == KindNack {
		c.win.Nack()
	}
}

func (n *NIC) countAck(fr *Frame) {
	if fr.Kind == KindNack {
		n.m.nacksReceived.Inc()
	} else {
		n.m.acksReceived.Inc()
	}
}

// fuseAck feeds one arriving (n)ack into the connection's fused dispatch:
// the first arms a single AckProcCost event; any that land while it is
// queued fold in their cumulative values (serial max) and are absorbed
// without a CPU event or an allocation of their own.
func (n *NIC) fuseAck(fr *Frame, nack bool) {
	c := n.sendConn(fr.DstPort, fr.SrcNode, fr.SrcPort)
	if c.ackFuse.Pending() {
		if SeqAfter(fr.Ack, c.fusedAck) {
			c.fusedAck = fr.Ack
		}
		c.fusedNack = c.fusedNack || nack
		return
	}
	c.fusedAck = fr.Ack
	c.fusedNack = nack
	c.ackFuse.Arm(n.Cfg.AckProcCost)
}

// sendNack emits a negative acknowledgment carrying the last in-order
// sequence number, asking the sender to go back without waiting for its
// timer (fast recovery; GM-2 rejects out-of-sequence packets similarly).
func (n *NIC) sendNack(data *Frame, lastGood uint32) {
	n.m.nacksSent.Inc()
	n.Inject(&Frame{
		Kind:    KindNack,
		SrcNode: n.ID(), DstNode: data.SrcNode,
		SrcPort: data.DstPort, DstPort: data.SrcPort,
		Ack: lastGood,
	}, nil)
}
