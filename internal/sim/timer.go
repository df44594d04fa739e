package sim

// Timer is a reusable scheduling handle and the only one the engine keeps
// to a scheduled event: the callback is bound once at construction, and
// Reset re-arms it for another firing without allocating a closure — the
// pattern behind every retransmit timer in the protocol layers, which arm,
// cancel, and re-arm on each packet. It remembers the generation of the
// arena slot it armed, so once its event fires or is cancelled and the slot
// is recycled into another event, the Timer reads as unarmed rather than
// aliasing the slot's next incarnation.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *event
	gen uint32
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// active reports whether the armed incarnation is still the queued one.
func (t *Timer) active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.pending()
}

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.active() }

// When reports the firing time of an armed timer, or 0 when unarmed.
func (t *Timer) When() Time {
	if !t.active() {
		return 0
	}
	return t.ev.when
}

// Reset arms the timer to fire at virtual time at. An armed timer's event
// is cancelled and scheduled afresh with its owner, so it fires owned by
// the domain that first armed it, and its key is drawn as for any event
// scheduled now: from the current domain, or from the owner outside any
// event. Arming from inside the timer's own callback is allowed and
// schedules the next firing (the firing incarnation was already retired by
// the engine).
func (t *Timer) Reset(at Time) {
	owner := t.eng.curDom
	if t.active() {
		owner = t.ev.owner
		t.eng.cancel(t.ev)
	}
	t.ev = t.eng.schedule(owner, at, t.fn)
	t.gen = t.ev.gen
}

// ResetAfter arms the timer to fire d after the current time.
func (t *Timer) ResetAfter(d Time) { t.Reset(t.eng.now + d) }

// Stop disarms the timer, reporting whether it was armed. Stopping an
// unarmed (or already-fired) timer is a no-op and never touches whatever
// event may have reused the slot.
func (t *Timer) Stop() bool {
	if !t.active() {
		return false
	}
	t.eng.cancel(t.ev)
	return true
}
