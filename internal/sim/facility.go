package sim

// Facility models a resource that serves requests one at a time in FIFO
// order — a DMA engine, a NIC processor, a link transmitter. Reservations
// are analytic: Reserve returns when service would begin given the queue
// ahead, without creating events; callers schedule their own completion.
//
// A facility has no name: its owner (a NIC, a link) holds it by value, and
// diagnostics name the owner. Copying one that is in use splits its queue.
type Facility struct {
	eng    *Engine
	freeAt Time
	// accounting
	busy     Time
	requests uint64
}

// NewFacility returns an idle facility bound to e, for its owner to store
// in place.
func NewFacility(e *Engine) Facility { return Facility{eng: e} }

// Rebind moves the facility onto another engine. Shard partitioning uses it
// to hand each boundary resource to the one engine whose events reserve it;
// rebinding a facility with reservations in flight would corrupt its
// accounting, so it must happen before the simulation runs.
func (f *Facility) Rebind(e *Engine) {
	if f.freeAt != 0 || f.requests != 0 {
		panic("sim: Rebind of a facility already in use")
	}
	f.eng = e
}

// Reserve books the facility for a service time of d, returning the time
// service starts (>= now). The facility is busy until start+d.
func (f *Facility) Reserve(d Time) (start Time) {
	if d < 0 {
		d = 0
	}
	start = f.eng.now
	if f.freeAt > start {
		start = f.freeAt
	}
	f.freeAt = start + d
	f.busy += d
	f.requests++
	return start
}

// Do reserves d of service and schedules fn at completion time,
// returning the completion time.
func (f *Facility) Do(d Time, fn func()) Time {
	start := f.Reserve(d)
	end := start + d
	f.eng.At(end, fn)
	return end
}

// FreeAt reports the time at which all currently-reserved work completes.
func (f *Facility) FreeAt() Time { return f.freeAt }

// BusyTime reports the cumulative service time reserved so far.
func (f *Facility) BusyTime() Time { return f.busy }

// Requests reports how many reservations have been made.
func (f *Facility) Requests() uint64 { return f.requests }

// Utilization reports busy time divided by elapsed time, 0 at time zero.
func (f *Facility) Utilization() float64 {
	if f.eng.now == 0 {
		return 0
	}
	b := f.busy
	if f.freeAt > f.eng.now {
		b -= f.freeAt - f.eng.now // don't count booked-but-future time
	}
	return float64(b) / float64(f.eng.now)
}
