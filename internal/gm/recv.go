package gm

import (
	"repro/internal/fabric"
	"repro/internal/trace"
)

// traceDrop records a packet the sequence check refused when tracing is
// enabled. The values are boxed for the trace only then: a duplicate that a
// go-back-N round provokes allocates nothing.
func (n *NIC) traceDrop(what string, seq, expect uint32) {
	if n.Trace.Enabled() {
		n.Trace.Log(n.Engine().Now(), n.ID(), trace.Drop, "%s seq=%d expect=%d", what, seq, expect)
	}
}

// Receive-side firmware: sequence checking, receive-token matching,
// RDMA to host memory, and acknowledgment generation.

// rxData handles an arriving data packet, unicast or multicast. The packet
// occupies a NIC receive buffer from wire arrival until its payload has been
// RDMA'd into the matched host buffer (and, forwarded, until its last replica
// has left); a NIC with no free receive buffer drops the packet at the wire
// (go-back-N recovers it). Buffer and descriptor travel together: whichever
// path ends the packet returns both.
func (n *NIC) rxData(src fabric.NodeID, fr *Frame) {
	buf, ok := n.HW.RecvBufs.TryAcquire()
	if !ok {
		n.HW.CountRxNoBuffer()
		return
	}
	d := n.newDesc(fr, rxLook)
	d.peer, d.buf, d.uses = src, buf, 1
	n.HW.CPUDo(n.Cfg.RecvProcCost, d.step)
}

// rxData is the receive processing of the descriptor's unicast data frame:
// sequence check, receive-token match, acknowledgment, and the RDMA to host
// memory.
func (d *Desc) rxData() {
	n, fr := d.nic, d.fr
	if fr.Piggy {
		// The frame carries the reverse direction's cumulative ack;
		// retire those send records inside this same CPU event — the
		// standalone ack's wire crossing and AckProcCost are the saving.
		n.sendConn(fr.DstPort, d.peer, fr.SrcPort).handleAck(fr.PiggyAck)
	}
	r := n.recvConn(d.peer, fr.SrcPort, fr.DstPort)
	port := n.port(fr.DstPort)
	if port == nil {
		// No such port; silently dropping models a misdirected packet.
		d.Done()
		return
	}
	switch {
	case SeqBefore(fr.Seq, r.expect):
		// Duplicate of an already-accepted packet (its ack was lost, or
		// go-back-N resent it). Re-ack so the sender advances; the
		// immediate cumulative ack also covers anything coalesced.
		n.m.duplicates.Inc()
		n.traceDrop("duplicate", fr.Seq, r.expect)
		r.hold.Absorb()
		r.sendAck(r.expect - 1)
		d.Done()
	case SeqAfter(fr.Seq, r.expect):
		// Hole ahead of us: drop; the sender's timeout resends in
		// order. With fast recovery enabled, tell the sender now.
		n.m.oooDrops.Inc()
		n.traceDrop("out-of-order", fr.Seq, r.expect)
		if n.Cfg.EnableNacks {
			r.hold.Absorb()
			r.sendNack(r.expect - 1)
		}
		d.Done()
	default:
		asm, ok := port.MatchAssembly(d.peer, fr)
		if !ok {
			// In sequence but the host has posted no receive buffer
			// large enough. Don't ack: the sender will retransmit,
			// and accepting would violate ordered delivery. Providing
			// tokens in time is the client program's responsibility.
			n.m.noTokenDrops.Inc()
			if n.Trace.Enabled() {
				n.Trace.Log(n.Engine().Now(), n.ID(), trace.Drop, "no receive token for %d bytes", fr.MsgLen)
			}
			d.Done()
			return
		}
		r.expect++
		n.m.dataReceived.Inc()
		if n.Trace.Enabled() {
			n.Trace.Log(n.Engine().Now(), n.ID(), trace.RX, "%s", fr.Wire(d.peer, n.ID()))
		}
		if n.Cfg.AckCoalescing() {
			r.hold.Note()
		} else {
			r.sendAck(fr.Seq)
		}
		d.Land(asm, false)
	}
}

// rxAck handles an arriving unicast acknowledgment or negative
// acknowledgment: retire everything the cumulative field covers and, for a
// nack, go-back-N immediately (bounded by the per-connection holdoff so a
// burst of nacks triggers one resend). The packet is gone when this returns,
// so what the processing needs — the connection, the cumulative value, which
// of the two it is — is taken out of the header now. Under the ack economy
// the processing is fused per connection; otherwise each one takes its own
// turn on the LANai, carried by a descriptor.
func (n *NIC) rxAck(src fabric.NodeID, h fabric.Ctl) {
	c, nack := n.sendConn(PortID(h.DstPort), src, PortID(h.SrcPort)), Kind(h.Kind) == KindNack
	if n.Cfg.ackEconomy() {
		n.countAck(nack)
		c.fuseAck(h.Ack, nack)
		return
	}
	d := n.newDesc(nil, ackTurn)
	d.conn, d.ack, d.nack = c, h.Ack, nack
	n.HW.CPUDo(n.Cfg.AckProcCost, d.step)
}

func (n *NIC) countAck(nack bool) {
	if nack {
		n.m.nacksReceived.Inc()
	} else {
		n.m.acksReceived.Inc()
	}
}

// fuseAck feeds one arriving (n)ack into the connection's fused dispatch:
// the first arms a single AckProcCost event; any that land while it is
// queued fold in their cumulative values (serial max) and are absorbed
// without a CPU event or an allocation of their own.
func (c *conn) fuseAck(ack uint32, nack bool) {
	if c.ackFuse.Pending() {
		if SeqAfter(ack, c.fusedAck) {
			c.fusedAck = ack
		}
		c.fusedNack = c.fusedNack || nack
		return
	}
	c.fusedAck = ack
	c.fusedNack = nack
	c.ackFuse.Arm(c.nic.Cfg.AckProcCost)
}
