package sim

import (
	"fmt"
	"math/bits"
)

// Event is one scheduled callback. Events live in the engine's arena:
// Engine.At hands out a slot (recycling fired and cancelled slots through a
// free list) and the returned handle is guaranteed valid only while the
// event is pending — once it fires or is cancelled, the slot may be reused
// by a later At and the old handle then refers to the new incarnation.
// Callers that retain a handle across firings (retransmit timers and the
// like) must use the generation-checked Timer instead of a raw *Event.
type Event struct {
	when  Time
	seq   uint64 // (domain, local sequence) key; breaks same-timestamp ties
	fn    func()
	next  *Event // bucket list link while the event sits in the ring
	index int32  // position in the heap holding the event
	gen   uint32 // bumped on every recycle; Timer handles validate against it
	owner uint32 // domain restored as the current domain when the event fires
	where queue  // the structure holding the event; unqueued once fired or cancelled
}

// queue names the part of the engine's queue an event sits in.
type queue uint8

const (
	unqueued queue = iota
	inNear         // the current-bucket heap
	inRing         // a bucket list of the ring
	inFar          // the far heap
)

// When reports the virtual time at which the event is scheduled to fire.
func (ev *Event) When() Time { return ev.when }

// Pending reports whether the event is still scheduled.
func (ev *Event) Pending() bool { return ev.where != unqueued }

// arenaChunk is the slab size of the event arena. Chunks are never freed
// or moved, so *Event pointers stay valid for the engine's lifetime.
const arenaChunk = 128

// The ring has ringSize buckets of 1<<bucketShift = 16 ns, a horizon of
// 4.096 µs. Unexported constants, not a knob: on the 512-host multicast
// storm 64 × 64 ns was clearly slower and 128 × 32 ns no faster.
const (
	bucketShift = 4
	ringSize    = 256
	ringMask    = ringSize - 1
)

// slotOf reports the absolute bucket number of time t.
func slotOf(t Time) uint64 { return uint64(t) >> bucketShift }

// Engine is a discrete-event simulation kernel.
// The zero value is not usable; construct with NewEngine.
//
// The event queue has two levels over arena-allocated events. An event
// due within the ring's horizon goes onto its 16 ns bucket's unsorted list
// — a pointer store, no ordering work — and one due later into the far
// heap: retransmit and delayed-ack timers, and packet arrivals whose wire
// time passes the horizon (at 4 ns/B, a 1 KB Myrinet packet's alone is
// 4.1 µs). When the current bucket's events are spent, the next non-empty
// bucket becomes current: a lone event fires straight off its list,
// several move into the near heap, where events scheduled into the current
// bucket go too. The next event is the smaller of the near and far heap
// tops by (time, key), so the fire order is the total order (time, key)
// whichever structures an event passed through. Both heaps are 4-ary
// min-heaps with direct field comparisons sharing one sift implementation;
// the arena plus free list means a steady-state simulation schedules
// events without allocating.
type Engine struct {
	now   Time
	fired uint64

	// Tiebreak keys are (domain, per-domain sequence) pairs packed into a
	// uint64: domain in the top domainBits, sequence below. Domain 0 is the
	// ambient domain; an engine with no domains registered degenerates to
	// the classic global-sequence FIFO ordering (domSeq[0] is then the old
	// seq counter, and keys compare exactly as sequence numbers did).
	//
	// Domains make tiebreak order shard-stable: an event's key depends only
	// on the logical schedule order within its source domain, never on how
	// domains are distributed over engines, which is what lets a sharded
	// run reproduce the serial engine's timeline bit for bit.
	domSeq []uint64
	curDom uint32 // domain of the currently-executing event, 0 when idle

	// near holds the events of buckets up to cur, ring[s&ringMask] the
	// events of bucket s for cur < s < cur+ringSize (occ marks the
	// non-empty lists, ringN counts their events), far everything later.
	// ringN is 32 bits and sits beside curDom so that the Engine, malloc
	// header included, fits the 2 304 B size class.
	ringN int32
	near  eventHeap
	far   eventHeap
	cur   uint64
	ring  [ringSize]*Event
	occ   [ringSize / 64]uint64

	chunks []*[arenaChunk]Event
	used   int      // slots handed out of the newest chunk
	free   []*Event // recycled slots, reused LIFO

	procs   map[*Proc]struct{}
	current *Proc // process currently executing, if any

	// fireHook, when set, observes every fired event's (when, key) — the
	// timeline probe the engine-equivalence tests diff.
	fireHook func(Time, uint64)

	// chooser, when set, picks which same-timestamp enabled event fires
	// next; see SetChooser. cands is its reusable scratch buffer.
	chooser func(n int) int
	cands   []*Event
}

// domainBits is the width of the domain field in an event key; the low
// 64-domainBits bits carry the per-domain sequence (2^48 events per domain
// before overflow — unreachable in practice).
const domainBits = 16

// MaxDomains is the largest domain count an engine supports.
const MaxDomains = 1<<domainBits - 1

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]struct{}), domSeq: make([]uint64, 1)}
}

// GrowDomains ensures domains 0..n are registered. Domains are key
// namespaces for same-timestamp tiebreaks; callers that never grow beyond
// the ambient domain 0 get the legacy global-FIFO ordering.
func (e *Engine) GrowDomains(n int) {
	if n > MaxDomains {
		panic(fmt.Sprintf("sim: domain %d exceeds MaxDomains %d", n, MaxDomains))
	}
	for len(e.domSeq) <= n {
		e.domSeq = append(e.domSeq, 0)
	}
}

// WithDomain runs fn with the current domain forced to d, so events fn
// schedules draw keys from (and are owned by) d. It is how setup code —
// which runs outside any event — attributes its scheduling to the entity it
// is wiring, keeping keys identical no matter how entities are later
// distributed over engines.
func (e *Engine) WithDomain(d uint32, fn func()) {
	prev := e.curDom
	e.curDom = d
	fn()
	e.curDom = prev
}

// nextKey draws the next tiebreak key from src's sequence.
func (e *Engine) nextKey(src uint32) uint64 {
	k := uint64(src)<<(64-domainBits) | e.domSeq[src]
	e.domSeq[src]++
	return k
}

// AllocKey draws a tiebreak key exactly as AtDomain(owner, ...) would,
// without scheduling anything: from the current domain when one is
// executing, else from owner. Shard coordinators use it to assign a
// cross-engine event its key on the source engine — the key the serial
// engine would have assigned — before handing the event to the destination
// engine via AtKey.
func (e *Engine) AllocKey(owner uint32) uint64 {
	src := e.curDom
	if src == 0 {
		src = owner
	}
	return e.nextKey(src)
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsFired reports how many events have executed, a cheap progress and
// determinism probe for tests.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.near) + int(e.ringN) + len(e.far) }

// alloc hands out an event slot: a recycled one when available, else the
// next slot of the newest arena chunk.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.chunks) == 0 || e.used == arenaChunk {
		e.chunks = append(e.chunks, new([arenaChunk]Event))
		e.used = 0
	}
	ev := &e.chunks[len(e.chunks)-1][e.used]
	e.used++
	return ev
}

// recycle returns a no-longer-queued slot to the free list. The generation
// bump invalidates Timer handles to the slot's previous incarnation.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// eventLess orders the queue by timestamp, then by scheduling order, so
// same-timestamp events fire FIFO.
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of events under eventLess; every event in
// it knows its position through index.
type eventHeap []*Event

// siftUp moves h[i] toward the root until its parent is not greater.
func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown moves h[i] toward the leaves until no child is smaller.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[best]) {
				best = c
			}
		}
		if !eventLess(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].index = int32(i)
		i = best
	}
	h[i] = ev
	ev.index = int32(i)
}

// push queues ev.
func (h *eventHeap) push(ev *Event) {
	ev.index = int32(len(*h))
	*h = append(*h, ev)
	h.siftUp(int(ev.index))
}

// remove unqueues the event at position i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.index = int32(i)
		h.siftDown(i)
		if int(last.index) == i {
			h.siftUp(i)
		}
	}
}

// insert queues ev by its timestamp: into the near heap at or before the
// current bucket, onto its bucket's list within the ring, else into the
// far heap.
func (e *Engine) insert(ev *Event) {
	s := slotOf(ev.when)
	switch {
	case s <= e.cur:
		ev.where = inNear
		e.near.push(ev)
	case s-e.cur < ringSize:
		ev.where = inRing
		b := s & ringMask
		ev.next = e.ring[b]
		e.ring[b] = ev
		e.occ[b/64] |= 1 << (b % 64)
		e.ringN++
	default:
		ev.where = inFar
		e.far.push(ev)
	}
}

// unlink takes a pending ev out of whichever structure holds it.
func (e *Engine) unlink(ev *Event) {
	switch ev.where {
	case inNear:
		e.near.remove(int(ev.index))
	case inFar:
		e.far.remove(int(ev.index))
	case inRing:
		b := slotOf(ev.when) & ringMask
		if p := e.ring[b]; p == ev {
			if e.ring[b] = ev.next; ev.next == nil {
				e.occ[b/64] &^= 1 << (b % 64)
			}
		} else {
			for p.next != ev {
				p = p.next
			}
			p.next = ev.next
		}
		e.ringN--
	}
	ev.where = unqueued
}

// nextSlot reports the absolute number of the first non-empty bucket after
// cur. The ring must hold at least one event.
func (e *Engine) nextSlot() uint64 {
	start := (e.cur + 1) & ringMask
	w := start / 64
	word := e.occ[w] &^ (1<<(start%64) - 1)
	// Five words: the first from start, the other three, then the first
	// again for the buckets before start, which lie a lap ahead.
	for range len(e.occ) + 1 {
		if word != 0 {
			b := w*64 + uint64(bits.TrailingZeros64(word))
			return e.cur + (b-e.cur)&ringMask
		}
		w = (w + 1) % uint64(len(e.occ))
		word = e.occ[w]
	}
	panic("sim: ring occupancy bitmap out of step with its lists")
}

// front returns the earliest pending event, nil when none is. With the
// near heap spent, the next non-empty bucket becomes current, unless the
// far heap's top is due before it, and its events move into the near heap;
// a lone event is returned where it sits, and fire makes its bucket
// current.
func (e *Engine) front() *Event {
	if len(e.near) == 0 && e.ringN > 0 {
		if s := e.nextSlot(); len(e.far) == 0 || slotOf(e.far[0].when) >= s {
			b := s & ringMask
			ev := e.ring[b]
			if ev.next == nil && (len(e.far) == 0 || slotOf(e.far[0].when) > s) {
				return ev
			}
			e.ring[b] = nil
			e.occ[b/64] &^= 1 << (b % 64)
			e.cur = s
			for ev != nil {
				next := ev.next
				ev.where = inNear
				ev.index = int32(len(e.near))
				e.near = append(e.near, ev)
				e.ringN--
				ev = next
			}
			for i := (len(e.near) - 2) / 4; i >= 0; i-- {
				e.near.siftDown(i)
			}
		}
	}
	switch {
	case len(e.near) == 0:
		if len(e.far) == 0 {
			return nil
		}
		return e.far[0]
	case len(e.far) == 0 || eventLess(e.near[0], e.far[0]):
		return e.near[0]
	default:
		return e.far[0]
	}
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it would silently corrupt causality. The event is owned by the current
// domain (0 outside any event), so work an entity schedules stays
// attributed to that entity.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtDomain(e.curDom, t, fn)
}

// AtDomain schedules fn at t owned by domain owner: when the event fires,
// owner becomes the current domain. The tiebreak key is drawn from the
// current domain when one is executing (the scheduling entity), falling
// back to owner for ambient (setup-time) scheduling — either way the key is
// independent of how domains are assigned to engines.
func (e *Engine) AtDomain(owner uint32, t Time, fn func()) *Event {
	src := e.curDom
	if src == 0 {
		src = owner
	}
	return e.atKey(t, e.nextKey(src), owner, fn)
}

// AtKey schedules fn at t with a caller-supplied key and owner. It is the
// cross-engine handoff primitive: the source engine assigns the key via
// AllocKey, the destination engine queues the event here, and the combined
// timeline sorts exactly as if one engine had scheduled it.
func (e *Engine) AtKey(t Time, key uint64, owner uint32, fn func()) *Event {
	return e.atKey(t, key, owner, fn)
}

func (e *Engine) atKey(t Time, key uint64, owner uint32, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.when = t
	ev.seq = key
	ev.owner = owner
	ev.fn = fn
	e.insert(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event and recycles its slot. Cancelling an
// already-fired or already-cancelled event is a no-op — but note the
// handle-validity rule on Event: once the slot has been reused by a later
// At, the stale handle aliases the new event.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.where == unqueued {
		return
	}
	e.unlink(ev)
	e.recycle(ev)
}

// Reschedule moves a pending event to time t, pushing it to the back of
// the FIFO among events already scheduled at t. The event must still be
// pending: rescheduling a fired or cancelled event panics, because its
// slot may already belong to an unrelated event (use Timer.Reset for a
// handle that re-arms safely across firings).
func (e *Engine) Reschedule(ev *Event, t Time) {
	if ev.where == unqueued {
		panic("sim: reschedule of non-pending event")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", t, e.now))
	}
	src := e.curDom
	if src == 0 {
		src = ev.owner
	}
	e.unlink(ev)
	ev.when = t
	ev.seq = e.nextKey(src)
	e.insert(ev)
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports false when no events remain. The fired slot is recycled
// before the callback runs, so a callback re-arming its own Timer draws a
// fresh incarnation rather than resurrecting the firing one.
func (e *Engine) Step() bool {
	ev := e.front()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire runs the next event, given the queue's front ev — or, under a
// chooser, the enabled event at ev's timestamp that the chooser picks.
func (e *Engine) fire(ev *Event) {
	if e.chooser != nil {
		ev = e.choose(ev.when)
	}
	// With the near heap empty, nothing pending is earlier than ev and the
	// ring holds only later buckets, so ev's bucket becomes the current one.
	if ev.where != inNear && len(e.near) == 0 {
		if s := slotOf(ev.when); s > e.cur {
			e.cur = s
		}
	}
	e.unlink(ev)
	e.now = ev.when
	e.fired++
	fn := ev.fn
	owner := ev.owner
	if e.fireHook != nil {
		e.fireHook(ev.when, ev.seq)
	}
	e.recycle(ev)
	prev := e.curDom
	e.curDom = owner
	fn()
	e.curDom = prev
}

// SetFireHook installs (or, with nil, removes) a callback observing every
// fired event's timestamp and tiebreak key, in fire order — the probe the
// engine-equivalence tests use to diff full timelines across serial,
// legacy, and sharded runs.
func (e *Engine) SetFireHook(fn func(when Time, key uint64)) { e.fireHook = fn }

// SetChooser installs (or, with nil, removes) a controlled scheduler: at
// every Step where more than one event is *enabled*, fn picks which fires.
//
// The enabled set at the earliest pending timestamp t contains, for each
// domain with events at t, only that domain's lowest-key event: per-domain
// order is the FIFO program order of the entity (a NIC processes its own
// work in order; a link delivers in order), so permuting within a domain
// would explore schedules no hardware can produce. Orders *across* domains
// at the same timestamp are genuinely concurrent, and those are exactly the
// orders a chooser can permute. The candidates are presented sorted by key,
// so index 0 is the event the default FIFO schedule would fire — a chooser
// that always returns 0 reproduces the uncontrolled timeline bit for bit.
// fn is only consulted when n >= 2; out-of-range returns are reduced mod n.
//
// The chooser is a model-checking instrument, not a fast path: each choice
// scans both heaps and that timestamp's bucket list. It must not be
// combined with the sharded coordinator (shards assume the serial FIFO
// order when exchanging lookahead promises); internal/explore runs serial
// clusters only.
func (e *Engine) SetChooser(fn func(n int) int) { e.chooser = fn }

// choose builds the enabled set at timestamp t, the earliest pending one —
// the per-domain minimum-key event of every domain with work at t, sorted
// by key — and returns the chooser's pick. Events at t may sit in either
// heap or on t's bucket list; the scan walks all three.
func (e *Engine) choose(t Time) *Event {
	cands := e.cands[:0]
	for _, ev := range e.near {
		if ev.when == t {
			cands = addCandidate(cands, ev)
		}
	}
	for _, ev := range e.far {
		if ev.when == t {
			cands = addCandidate(cands, ev)
		}
	}
	for ev := e.ring[slotOf(t)&ringMask]; ev != nil; ev = ev.next {
		if ev.when == t {
			cands = addCandidate(cands, ev)
		}
	}
	// Insertion sort by key: candidate counts are small (one per busy
	// domain) and the slice is reused, so this stays allocation-free.
	for i := 1; i < len(cands); i++ {
		ev := cands[i]
		j := i - 1
		for j >= 0 && cands[j].seq > ev.seq {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = ev
	}
	e.cands = cands // retain grown capacity
	pick := 0
	if len(cands) >= 2 {
		pick = e.chooser(len(cands))
		pick %= len(cands)
		if pick < 0 {
			pick += len(cands)
		}
	}
	return cands[pick]
}

// addCandidate adds ev to the enabled set unless its domain already has an
// event there, in which case the lower key of the two stays.
func addCandidate(cands []*Event, ev *Event) []*Event {
	d := ev.seq >> (64 - domainBits)
	for i, c := range cands {
		if c.seq>>(64-domainBits) == d {
			if ev.seq < c.seq {
				cands[i] = ev
			}
			return cands
		}
	}
	return append(cands, ev)
}

// NextEventTime reports the timestamp of the earliest pending event; ok is
// false when the queue is empty. Shard coordinators use it to pick the next
// synchronization window.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	ev := e.front()
	if ev == nil {
		return 0, false
	}
	return ev.when, true
}

// RunBefore fires every event with timestamp strictly before end, leaving
// the clock at the last fired event (it does not advance the clock to end).
// It is the inner loop of a conservative synchronization window [T, end):
// the lookahead guarantee is that no other shard can schedule work here
// before end, so everything below end is safe to fire.
func (e *Engine) RunBefore(end Time) {
	for ev := e.front(); ev != nil && ev.when < end; ev = e.front() {
		e.fire(ev)
	}
}

// Run fires events until none remain. Parked processes do not keep Run
// going: a simulation that ends with processes still waiting has simply
// gone quiet (use Kill to release their coroutines).
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for ev := e.front(); ev != nil && ev.when <= t; ev = e.front() {
		e.fire(ev)
	}
	if t > e.now {
		e.now = t
		// An idle ring restarts at the new clock, so events scheduled
		// from here on land in it rather than in the far heap.
		if len(e.near) == 0 && e.ringN == 0 && slotOf(t) > e.cur {
			e.cur = slotOf(t)
		}
	}
}

// RunFor runs the simulation for d more virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
