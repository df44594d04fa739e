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
// the packet at the wire (go-back-N recovers it).
func (n *NIC) rxData(fr *Frame) {
	buf, ok := n.HW.RecvBufs.TryAcquire()
	if !ok {
		n.HW.CountRxNoBuffer()
		return
	}
	n.HW.CPUDo(n.Cfg.RecvProcCost, func() {
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
			buf.Release()
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
			buf.Release()
		case SeqAfter(fr.Seq, r.expect):
			// Hole ahead of us: drop; the sender's timeout resends in
			// order. With fast recovery enabled, tell the sender now.
			n.m.oooDrops.Inc()
			n.traceDrop("out-of-order seq=%d expect=%d", fr.Seq, r.expect)
			if n.Cfg.EnableNacks {
				r.hold.Absorb()
				n.sendNack(fr, r.expect-1)
			}
			buf.Release()
		default:
			asm, ok := port.matchAssembly(fr.SrcNode, fr.SrcPort, fr.MsgID, fr.MsgLen, fr.Group)
			if !ok {
				// In sequence but the host has posted no receive buffer
				// large enough. Don't ack: the sender will retransmit,
				// and accepting would violate ordered delivery. Providing
				// tokens in time is the client program's responsibility.
				n.m.noTokenDrops.Inc()
				n.traceDrop("no receive token for %d bytes", fr.MsgLen)
				buf.Release()
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
			payload := fr.Payload
			off := fr.Offset
			n.HW.NICToHost(len(payload), func() {
				buf.Release()
				asm.Deposit(off, payload)
			})
		}
	})
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

// rxAck handles an arriving unicast acknowledgment.
func (n *NIC) rxAck(fr *Frame) {
	if n.Cfg.ackEconomy() {
		n.m.acksReceived.Inc()
		n.fuseAck(fr, false)
		return
	}
	n.HW.CPUDo(n.Cfg.AckProcCost, func() {
		n.m.acksReceived.Inc()
		c := n.sendConn(fr.DstPort, fr.SrcNode, fr.SrcPort)
		c.handleAck(fr.Ack)
	})
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

// rxNack handles an arriving negative acknowledgment: retire everything
// the cumulative field covers, then go-back-N immediately (bounded by the
// per-connection holdoff so a burst of nacks triggers one resend).
func (n *NIC) rxNack(fr *Frame) {
	if n.Cfg.ackEconomy() {
		n.m.nacksReceived.Inc()
		n.fuseAck(fr, true)
		return
	}
	n.HW.CPUDo(n.Cfg.AckProcCost, func() {
		n.m.nacksReceived.Inc()
		c := n.sendConn(fr.DstPort, fr.SrcNode, fr.SrcPort)
		c.handleAck(fr.Ack)
		c.win.Nack()
	})
}
