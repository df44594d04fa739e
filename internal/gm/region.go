package gm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Directed sends — GM's remote-DMA put (gm_directed_send), the transport
// under MPICH-GM's rendezvous protocol. The receiver registers a memory
// region and hands its identifier to the sender out of band (the CTS
// message in MPI); the sender then writes into the region directly, with
// no receive tokens involved and no receive event generated — the silence
// is GM's actual behaviour, which is why MPICH-GM follows the data with a
// FIN message. Reliability rides the ordinary per-connection sequence
// space, so directed and normal traffic between the same ports stay
// mutually ordered.

// RegionID names a registered memory region on a port.
type RegionID uint64

// region is one registered, remotely writable buffer.
type region struct {
	id  RegionID
	buf []byte
	// written counts deposited bytes, a diagnostic for tests; directed
	// sends do not signal the receiving host.
	written int
}

// RegisterRegion pins memory the host already owns for remote directed
// writes and returns its identifier, as gm_register_memory does: writes
// land in buf itself, which the caller must not reuse until it deregisters.
func (p *Port) RegisterRegion(buf []byte) RegionID {
	p.nextRegion++
	id := p.nextRegion
	if p.regions == nil {
		p.regions = make(map[RegionID]*region)
	}
	p.regions[id] = &region{id: id, buf: buf}
	return id
}

// DeregisterRegion unpins a region. Packets that arrive for it afterwards
// are refused (and recovered by the sender's go-back-N until it stops).
func (p *Port) DeregisterRegion(id RegionID) {
	if _, ok := p.regions[id]; !ok {
		panic(fmt.Errorf("%w: region %d", ErrNotRegistered, id))
	}
	delete(p.regions, id)
}

// RegionWritten reports how many bytes have been deposited into a region
// (testing/diagnostics; the protocol itself never tells the host).
func (p *Port) RegionWritten(id RegionID) int {
	if r, ok := p.regions[id]; ok {
		return r.written
	}
	return 0
}

// DirectedSend writes data into the remote port's registered region at
// the given offset — a remote DMA put. It consumes a host send token like
// any send; completion (all packets acknowledged) is observable via
// WaitSendDone. The remote host is not notified.
func (p *Port) DirectedSend(proc *sim.Proc, dst fabric.NodeID, dstPort PortID, remote RegionID, offset int, data []byte) {
	p.directedSend(proc, dst, dstPort, remote, offset, data, nil)
}

// DirectedSendSync performs a directed send and blocks until the remote
// NIC has acknowledged every packet — the write is then globally visible.
func (p *Port) DirectedSendSync(proc *sim.Proc, dst fabric.NodeID, dstPort PortID, remote RegionID, offset int, data []byte) {
	done := false
	var w sim.Waiter
	p.directedSend(proc, dst, dstPort, remote, offset, data, func() {
		done = true
		w.WakeAll()
	})
	for !done {
		w.Wait(proc)
	}
}

func (p *Port) directedSend(proc *sim.Proc, dst fabric.NodeID, dstPort PortID, remote RegionID, offset int, data []byte, onDone func()) {
	if dst == p.Node() {
		panic(ErrSelfSend)
	}
	if offset < 0 {
		panic(ErrNegativeOffset)
	}
	t := p.newToken(proc, dst, dstPort, data)
	t.directed, t.region, t.base, t.onDone = true, remote, offset, onDone
	p.nic.HW.HostPost(t.step)
}

// rxDirected handles an arriving directed-write packet: the same sequence
// discipline as normal data, but the deposit goes straight into the
// registered region — no receive token, no assembly, no host event.
// Writes outside the region's bounds are refused: this is the protection
// GM's registered memory provides.
func (n *NIC) rxDirected(src fabric.NodeID, fr *Frame) {
	buf, ok := n.HW.RecvBufs.TryAcquire()
	if !ok {
		n.HW.CountRxNoBuffer()
		return
	}
	n.HW.CPUDo(n.Cfg.RecvProcCost, func() {
		r := n.recvConn(src, fr.SrcPort, fr.DstPort)
		port := n.port(fr.DstPort)
		if port == nil {
			buf.Release()
			return
		}
		switch {
		case fr.Seq < r.expect:
			n.m.duplicates.Inc()
			r.sendAck(r.expect - 1)
			buf.Release()
		case fr.Seq > r.expect:
			n.m.oooDrops.Inc()
			n.traceDrop("directed out-of-order", fr.Seq, r.expect)
			if n.Cfg.EnableNacks {
				r.sendNack(r.expect - 1)
			}
			buf.Release()
		default:
			reg, ok := port.regions[RegionID(fr.MsgID)]
			if !ok || fr.Offset+len(fr.Payload) > len(reg.buf) {
				// Unknown region or out-of-bounds write: refuse without
				// acknowledging. The sender retries; a misprogrammed peer
				// cannot scribble on memory it was not granted.
				n.m.directedRefused.Inc()
				if n.Trace.Enabled() {
					n.Trace.Log(n.Engine().Now(), n.ID(), trace.Drop, "directed write refused: region=%d off=%d len=%d",
						fr.MsgID, fr.Offset, len(fr.Payload))
				}
				buf.Release()
				return
			}
			r.expect++
			n.m.directedReceived.Inc()
			r.sendAck(fr.Seq)
			payload, off := fr.Payload, fr.Offset
			n.HW.NICToHost(len(payload), func() {
				copy(reg.buf[off:], payload)
				reg.written += len(payload)
				buf.Release()
			})
		}
	})
}
