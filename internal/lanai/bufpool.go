package lanai

import (
	"strconv"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// BufPool manages a fixed number of NIC SRAM packet buffers. Firmware
// acquires a buffer before staging a packet and releases it when the
// buffer's last use completes. Waiters are served FIFO; grants are
// delivered through scheduled events so release chains cannot recurse.
// A NIC holds its pools by value.
type BufPool struct {
	eng *sim.Engine
	// node and kind spell the pool's name ("nic3.recvbufs"), which only its
	// panics read.
	node    fabric.NodeID
	kind    string
	cap     int
	free    int
	waiters []bufWaiter
	// granted holds acquisitions whose buffer has been handed over but
	// whose grant event has not yet fired; deliverGrant (via grantFn, bound
	// in place at the first stall) pops them FIFO, so a release schedules no
	// per-grant closure.
	granted []bufWaiter
	grantFn func()
	// MaxQueued tracks the high-water mark of waiters, a resource
	// pressure diagnostic.
	MaxQueued int

	// m points at the pool's fields of its NIC's block (NIC.SetMetrics).
	m *poolInstruments
}

// bufWaiter is one queued acquisition — where the token goes and what runs
// once it is there — and the time it began waiting.
type bufWaiter struct {
	b     *Buf
	fn    func()
	since sim.Time
}

// Buf is a token for one NIC packet buffer. It is a value: the firmware
// keeps it inside the packet descriptor that owns the buffer, so acquiring
// one allocates nothing. The zero Buf holds no buffer.
type Buf struct {
	pool     *BufPool
	released bool
}

// newBufPool returns a pool of n buffers for node's NIC that counts into
// m; a NIC passes nil and points its pools at their fields of its block in
// SetMetrics.
func newBufPool(eng *sim.Engine, node fabric.NodeID, kind string, n int, m *poolInstruments) BufPool {
	if n < 1 {
		panic("lanai: buffer pool needs at least one buffer")
	}
	return BufPool{eng: eng, node: node, kind: kind, cap: n, free: n, m: m}
}

// name spells the pool's diagnostic name, "nic3.recvbufs".
func (p *BufPool) name() string { return "nic" + strconv.Itoa(int(p.node)) + "." + p.kind }

// Cap reports the pool's size; Free the currently-available count.
func (p *BufPool) Cap() int  { return p.cap }
func (p *BufPool) Free() int { return p.free }

// Queued reports how many acquisitions are waiting.
func (p *BufPool) Queued() int { return len(p.waiters) }

// Acquire writes a buffer token into *b and runs fn, immediately if a
// buffer is free, otherwise when one is released (FIFO). An empty pool
// counts as an exhaustion stall; the wait is charged to the stall-time
// counter when the grant finally arrives.
func (p *BufPool) Acquire(b *Buf, fn func()) {
	if p.free > 0 {
		p.free--
		p.m.inUse.Add(1)
		*b = Buf{pool: p}
		fn()
		return
	}
	p.m.stalls.Inc()
	if p.grantFn == nil {
		p.grantFn = p.deliverGrant
	}
	p.waiters = append(p.waiters, bufWaiter{b: b, fn: fn, since: p.eng.Now()})
	if len(p.waiters) > p.MaxQueued {
		p.MaxQueued = len(p.waiters)
	}
}

// TryAcquire grants a buffer only if one is free right now; the receive
// path uses it so a full NIC drops rather than blocks the wire.
func (p *BufPool) TryAcquire() (Buf, bool) {
	if p.free == 0 {
		return Buf{}, false
	}
	p.free--
	p.m.inUse.Add(1)
	return Buf{pool: p}, true
}

// Release returns b to its pool. The longest-waiting acquirer, if any, is
// granted the buffer at the current virtual time (the buffer stays in use,
// so the occupancy gauge is untouched). Double release panics: it means
// the firmware's buffer lifetime accounting is broken. So does releasing a
// token that never held a buffer.
func (b *Buf) Release() {
	if b.pool == nil {
		panic("lanai: release of a buffer token that holds no buffer")
	}
	if b.released {
		panic("lanai: double release of " + b.pool.name() + " buffer")
	}
	b.released = true
	p := b.pool
	if len(p.waiters) > 0 {
		w := popFront(&p.waiters)
		p.m.stallNs.AddInt(int64(p.eng.Now() - w.since))
		p.granted = append(p.granted, w)
		p.eng.After(0, p.grantFn)
		return
	}
	p.free++
	p.m.inUse.Add(-1)
	if p.free > p.cap {
		panic("lanai: pool " + p.name() + " over capacity")
	}
}

// deliverGrant fires one queued grant event: the longest-waiting acquirer
// receives its buffer. Grant events and the granted queue are both FIFO,
// so the front entry always belongs to the event now firing.
func (p *BufPool) deliverGrant() {
	w := popFront(&p.granted)
	*w.b = Buf{pool: p}
	w.fn()
}

// popFront removes and returns the head of a pool queue. It shifts the rest
// down in place rather than reslicing past the head, so the queue keeps its
// array and a stall allocates nothing once the queue has grown.
func popFront(q *[]bufWaiter) bufWaiter {
	w := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = bufWaiter{}
	*q = (*q)[:n]
	return w
}
