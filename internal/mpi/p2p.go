package mpi

import (
	"fmt"

	"repro/internal/gm"
)

// Point-to-point protocol. Eager messages (<= EagerMax) are sent
// immediately and copied out of the bounce buffer at the receiver (the
// copy cost causes the paper's dip at 16,287 bytes). Larger messages use
// rendezvous: RTS, then CTS once the receiver has posted an exactly-sized
// landing buffer, then the bulk data — the shape of MPICH-GM's remote-DMA
// rendezvous. All matching is on (source, tag), in order.

// Send transmits data to rank dst with a tag.
func (r *Rank) Send(dst int, tag int32, data []byte) {
	if tag < 0 {
		panic(ErrNegativeTag)
	}
	r.send(dst, tag, data)
}

// Recv blocks for a message from rank src with a tag and returns its
// payload in a fresh buffer.
func (r *Rank) Recv(src int, tag int32) []byte {
	if tag < 0 {
		panic(ErrNegativeTag)
	}
	return r.recv(src, tag, nil)
}

func (r *Rank) send(dst int, tag int32, data []byte) {
	if dst == r.id {
		panic(ErrSelfSend)
	}
	seq := r.nextSeq(dst, tag)
	if len(data) <= EagerMax {
		r.port.Send(r.proc, r.node(dst), mpiPort,
			r.encodeEnvelope(envelope{kEager, tag, seq}, data))
		return
	}
	// Rendezvous: RTS carries the length; the CTS answers with the
	// receiver's registered landing region; the bulk data then moves as a
	// remote-DMA put (gm_directed_send), followed by a FIN since directed
	// writes are silent at the receiver.
	r.port.Send(r.proc, r.node(dst), mpiPort,
		r.encodeEnvelope(envelope{kRTS, tag, seq}, encodeU32(uint32(len(data)))))
	cts := r.awaitMatch(dst, tag, seq, kCTS)
	_, ctsBody := decodeEnvelope(cts.Data)
	region := gm.RegionID(decodeU64(ctsBody))
	r.replenish(cts) // the CTS consumed an eager token
	r.port.DirectedSendSync(r.proc, r.node(dst), mpiPort, region, 0, data)
	// The FIN echoes the rendezvous sequence number so the receiver can
	// pair it with its CTS.
	r.port.Send(r.proc, r.node(dst), mpiPort,
		r.encodeEnvelope(envelope{kFin, tag, seq}, nil))
}

// recv receives the next message from (src, tag) into dst: eager data
// is copied there and a rendezvous lands there directly. A nil dst means a
// fresh buffer of the message's length; any other dst must be exactly that
// long (ErrCountMismatch).
func (r *Rank) recv(src int, tag int32, dst []byte) []byte {
	ev := r.awaitMatch(src, tag, 0, kEager, kRTS)
	env, body := decodeEnvelope(ev.Data)
	switch env.kind {
	case kEager:
		out := landing(dst, len(body))
		copy(out, body)
		// Copying from the bounce buffer to the final location is host CPU
		// work — the cost behind the 16,287-byte dip in Figure 4.
		r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(body)))
		r.replenish(ev)
		return out
	case kRTS:
		out := landing(dst, int(decodeU32(body)))
		// Register the landing region and clear the sender to put.
		region := r.port.RegisterRegion(out)
		r.replenish(ev) // the RTS consumed an eager token
		r.port.Send(r.proc, r.node(src), mpiPort,
			r.encodeEnvelope(envelope{kCTS, tag, env.seq}, encodeU64(uint64(region))))
		r.replenish(r.awaitMatch(src, tag, env.seq, kFin)) // ... as did the FIN
		// The remote DMA landed in place: no bounce-buffer copy charged.
		r.port.DeregisterRegion(region)
		return out
	default:
		panic(fmt.Sprintf("mpi: impossible match kind %d", env.kind))
	}
}

// landing returns dst for an n-byte message, or a fresh buffer when dst is
// nil.
func landing(dst []byte, n int) []byte {
	if dst == nil {
		return make([]byte, n)
	}
	if len(dst) != n {
		panic(fmt.Errorf("%w: %d-byte message, %d-byte buffer", ErrCountMismatch, n, len(dst)))
	}
	return dst
}

// sendKind posts an internal protocol message with an explicit kind,
// bypassing the user-facing eager/rendezvous selection.
func (r *Rank) sendKind(dst int, tag int32, kind msgKind, body []byte) {
	seq := r.nextSeq(dst, tag)
	r.port.Send(r.proc, r.node(dst), mpiPort,
		r.encodeEnvelope(envelope{kind, tag, seq}, body))
}

// awaitMatch returns the first message from (src, tag) whose kind is
// one of kinds (and, when seq != 0, whose sequence number matches),
// consulting the unexpected queue first and then blocking on the GM port.
func (r *Rank) awaitMatch(src int, tag int32, seq uint32, kinds ...msgKind) *gm.RecvEvent {
	match := func(ev *gm.RecvEvent) bool {
		if ev.Group != 0 || ev.Src != r.node(src) {
			return false
		}
		env, _ := decodeEnvelope(ev.Data)
		if env.tag != tag {
			return false
		}
		if seq != 0 && env.seq != seq {
			return false
		}
		for _, k := range kinds {
			if env.kind == k {
				return true
			}
		}
		return false
	}
	return r.await(match)
}

// awaitGroup returns the next message delivered on the given multicast
// group, consulting the unexpected queue first.
func (r *Rank) awaitGroup(gid gm.GroupID) *gm.RecvEvent {
	return r.await(func(ev *gm.RecvEvent) bool { return ev.Group == gid })
}

// await returns the first event match accepts: out of the unexpected queue,
// or else off the port, parking each one it passes over in the queue.
func (r *Rank) await(match func(*gm.RecvEvent) bool) *gm.RecvEvent {
	for i, ev := range r.unexpected {
		if match(ev) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return ev
		}
	}
	for {
		ev := r.port.Recv(r.proc)
		r.port.Keep(ev)
		if match(ev) {
			return ev
		}
		r.unexpected = append(r.unexpected, ev)
	}
}
