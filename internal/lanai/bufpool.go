package lanai

import "repro/internal/sim"

// BufPool manages a fixed number of NIC SRAM packet buffers. Firmware
// acquires a buffer before staging a packet and releases it when the
// buffer's last use completes. Waiters are served FIFO; grants are
// delivered through scheduled events so release chains cannot recurse.
type BufPool struct {
	eng     *sim.Engine
	name    string
	cap     int
	free    int
	waiters []bufWaiter
	// granted holds acquisitions whose buffer has been handed over but
	// whose grant event has not yet fired; deliverGrant (via the pre-bound
	// grantFn) pops them FIFO, so a release schedules no per-grant closure.
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

// newBufPool returns a pool of n buffers that counts into m; a NIC passes
// nil and points its pools at their fields of its block in SetMetrics.
func newBufPool(eng *sim.Engine, name string, n int, m *poolInstruments) *BufPool {
	if n < 1 {
		panic("lanai: buffer pool needs at least one buffer")
	}
	p := &BufPool{eng: eng, name: name, cap: n, free: n, m: m}
	p.grantFn = p.deliverGrant
	return p
}

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
		panic("lanai: double release of " + b.pool.name + " buffer")
	}
	b.released = true
	p := b.pool
	if len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters[0] = bufWaiter{}
		p.waiters = p.waiters[1:]
		p.m.stallNs.AddInt(int64(p.eng.Now() - w.since))
		p.granted = append(p.granted, w)
		p.eng.After(0, p.grantFn)
		return
	}
	p.free++
	p.m.inUse.Add(-1)
	if p.free > p.cap {
		panic("lanai: pool " + p.name + " over capacity")
	}
}

// deliverGrant fires one queued grant event: the longest-waiting acquirer
// receives its buffer. Grant events and the granted queue are both FIFO,
// so the front entry always belongs to the event now firing.
func (p *BufPool) deliverGrant() {
	w := p.granted[0]
	p.granted[0] = bufWaiter{}
	p.granted = p.granted[1:]
	*w.b = Buf{pool: p}
	w.fn()
}
