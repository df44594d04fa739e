package sim

// Timer is a reusable scheduling handle: the callback is bound once at
// construction, and Reset re-arms it for another firing without allocating
// a closure or an event — the pattern behind every retransmit timer in the
// protocol layers, which arm, cancel, and re-arm on each packet.
//
// Unlike a raw *Event, a Timer is safe to retain across firings: it
// remembers the generation of the arena slot it armed, so once the event
// fires (and the slot is recycled, possibly into an unrelated event) the
// Timer observes itself as no longer pending instead of aliasing the
// slot's next incarnation.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *Event
	gen uint32
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// active reports whether the armed incarnation is still the queued one.
func (t *Timer) active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.Pending()
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

// Reset arms the timer to fire at virtual time at, rescheduling in place
// when already armed. Arming from inside the timer's own callback is
// allowed and schedules the next firing (the firing incarnation was
// already retired by the engine).
func (t *Timer) Reset(at Time) {
	if t.active() {
		t.eng.Reschedule(t.ev, at)
		return
	}
	t.ev = t.eng.At(at, t.fn)
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
	t.eng.Cancel(t.ev)
	return true
}
