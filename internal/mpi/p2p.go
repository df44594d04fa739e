package mpi

import (
	"fmt"

	"repro/internal/gm"
)

// Point-to-point protocol. Every message is eager: sent at once, up to
// EagerMax bytes, and copied out of the bounce buffer at the receiver (the
// copy cost causes the paper's dip at 16,287 bytes). A larger message is
// refused with ErrExceedsEager. All matching is on (source, tag), in order.

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
	checkEager(len(data))
	r.sendKind(dst, tag, kEager, data)
}

// recv receives the next message from (src, tag) into dst. A nil dst means
// a fresh buffer of the message's length; any other dst must be exactly
// that long (ErrCountMismatch).
func (r *Rank) recv(src int, tag int32, dst []byte) []byte {
	ev := r.awaitMatch(src, tag, kEager)
	_, body := decodeEnvelope(ev.Data)
	out := landing(dst, len(body))
	copy(out, body)
	// Copying from the bounce buffer to the final location is host CPU
	// work — the cost behind the 16,287-byte dip in Figure 4.
	r.proc.Compute(r.w.C.Cfg.HostMemcpyTime(len(body)))
	r.replenish(ev)
	return out
}

// checkEager refuses an n-byte message, or a collective whose largest
// exchange is n bytes, past the eager limit.
func checkEager(n int) {
	if n > EagerMax {
		panic(fmt.Errorf("%w: %d bytes, limit %d", ErrExceedsEager, n, EagerMax))
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

// sendKind posts a message of the given kind.
func (r *Rank) sendKind(dst int, tag int32, kind msgKind, body []byte) {
	r.port.Send(r.proc, r.node(dst), mpiPort,
		r.encodeEnvelope(envelope{kind, tag}, body))
}

// awaitMatch returns the first message of the given kind from (src, tag),
// consulting the unexpected queue first and then blocking on the GM port.
func (r *Rank) awaitMatch(src int, tag int32, kind msgKind) *gm.RecvEvent {
	return r.await(func(ev *gm.RecvEvent) bool {
		if ev.Group != 0 || ev.Src != r.node(src) {
			return false
		}
		env, _ := decodeEnvelope(ev.Data)
		return env.tag == tag && env.kind == kind
	})
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
