package gm

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SendRecord tracks one transmitted, unacknowledged packet — GM's "send
// record": the frame (retransmission re-reads its payload from registered
// host memory), the time it was sent, and whatever the owner needs back
// when the packet retires.
type SendRecord[T any] struct {
	Frame *Frame // Frame.Seq is the record's sequence number
	Data  T

	sentAt sim.Time
	// retransmitted excludes the record from RTT sampling (Karn's rule).
	retransmitted bool
}

// Window is the sender side of the reliability scheme, shared by every
// reliable stream on the NIC: GM's go-back-N with the paper's one change,
// "an array of sequence numbers to record the acknowledged sequence number
// from each child". A unicast connection is a window over one child; a
// multicast group entry is a window over its tree fan-out; a collective
// group entry keeps a window over one child per peer. Acknowledgments
// are cumulative per child, so child i still owes record r exactly while
// acked[i] precedes r's sequence number — no per-record destination set.
//
// The window owns the ordered send records, the single retransmit timer,
// exponential backoff, the nack hold-off and the retransmission interval.
// The owner supplies what really differs: how to put a record's frame back
// on the wire toward one child, and what a retired record completes.
// Exported because packages core and coll instantiate it; the state is
// private.
type Window[T any] struct {
	eng *sim.Engine
	cfg *Config
	// ackBudget is how long a receiver may lawfully sit on an ack (its
	// delayed-ack bound, zero when it acks every packet). Every interval
	// budgets for it: a timer that does not turns each held ack near the
	// timeout into a spurious go-back-N on a healthy stream.
	ackBudget sim.Time
	timeouts  *metrics.Counter
	resend    func(fr *Frame, child int)
	retire    func(r *SendRecord[T])

	records []SendRecord[T] // ordered by seq
	acked   []uint32        // cumulative ack per child
	// timer is reusable; arming it allocates nothing, which matters because
	// ack progress re-arms it.
	timer *sim.Timer
	// backoff counts consecutive go-back rounds; the interval doubles with
	// each up to Config.BackoffCap and resets on ack progress.
	backoff int
	// lastFast is when the last nack-triggered round fired; fastArmed
	// distinguishes "never fired" from "fired at sim time 0" (a bare
	// zero-check would let a t=0 nack burst defeat the hold-off).
	lastFast  sim.Time
	fastArmed bool
	// Round-trip estimate in the style of TCP (Jacobson/Karels), nonzero
	// only once the owner has fed a sample under Config.AdaptiveRTO.
	srtt, rttvar sim.Time
}

// Init binds a zero window to its engine, the NIC's protocol constants and
// its owner. ackBudget is the receiver-side ack hold to budget for.
// resend(fr, i) must retransmit fr to child i; retire(r) runs once per
// record, in sequence order, when every child has acknowledged it (r is
// only valid during the call). timeouts counts go-back rounds. The window
// has no children until Reset.
func (w *Window[T]) Init(eng *sim.Engine, cfg *Config, ackBudget sim.Time, timeouts *metrics.Counter,
	resend func(fr *Frame, child int), retire func(r *SendRecord[T])) {
	w.eng, w.cfg, w.ackBudget, w.timeouts = eng, cfg, ackBudget, timeouts
	w.resend, w.retire = resend, retire
	w.timer = eng.NewTimer(w.goBack)
}

// Reset starts a fresh sequence space over the given number of children,
// each taken to have acknowledged everything up to base. The window must be
// drained.
func (w *Window[T]) Reset(children int, base uint32) {
	if len(w.records) > 0 {
		panic("gm: reset of a send window with unretired records")
	}
	w.acked = make([]uint32, children)
	for i := range w.acked {
		w.acked[i] = base
	}
	w.backoff = 0
	w.fastArmed = false
}

// Len reports the number of unretired send records.
func (w *Window[T]) Len() int { return len(w.records) }

// Armed reports whether the retransmit timer is pending.
func (w *Window[T]) Armed() bool { return w.timer.Pending() }

// Floor reports the serial-min of bound and every child's cumulative
// acknowledgment: the highest sequence number, no later than bound, that
// all children are known to have.
func (w *Window[T]) Floor(bound uint32) uint32 {
	for _, a := range w.acked {
		if SeqBefore(a, bound) {
			bound = a
		}
	}
	return bound
}

// Owed reports whether any child has yet to acknowledge seq.
func (w *Window[T]) Owed(seq uint32) bool { return w.Floor(seq) != seq }

// File records a packet that has just left the NIC and arms the timer; the
// record holds the frame until it retires. Packets are filed in sequence
// order.
func (w *Window[T]) File(fr *Frame, data T) {
	fr.Hold()
	w.records = append(w.records, SendRecord[T]{
		Frame: fr, Data: data, sentAt: w.eng.Now(),
	})
	w.Arm()
}

// Ack folds in a cumulative acknowledgment from one child and retires the
// records no child owes any more, reporting how many; each record releases
// its frame once retire has run. Stale acks and acks
// from a node that is not a child (index out of range) change nothing.
// Forward progress — and only that, or duplicate-ack chatter would defeat
// the backoff during congestion — resets the backoff. Re-arming the timer
// is the owner's call (Arm).
func (w *Window[T]) Ack(child int, ack uint32) int {
	if child < 0 || child >= len(w.acked) || !SeqAfter(ack, w.acked[child]) {
		return 0
	}
	w.acked[child] = ack
	floor := w.Floor(ack)
	n := 0
	for n < len(w.records) && SeqLEQ(w.records[n].Frame.Seq, floor) {
		w.retire(&w.records[n])
		w.records[n].Frame.Release()
		n++
	}
	if n == 0 {
		return 0
	}
	w.backoff = 0
	rest := copy(w.records, w.records[n:])
	clear(w.records[rest:])
	w.records = w.records[:rest]
	return n
}

// Arm (re)sets the retransmit timer to fire when the oldest record expires,
// or cancels it when none remain. Filing and go-back rounds arm it
// themselves; after an ack the owner decides. Re-arming moves the timer
// behind every event already queued for its instant even when the deadline
// is unchanged.
func (w *Window[T]) Arm() {
	if len(w.records) == 0 {
		w.timer.Stop()
		w.backoff = 0
		return
	}
	w.timer.Reset(max(w.records[0].sentAt+w.rto(), w.eng.Now()))
}

// rto reports the current retransmission interval: the fixed timeout, or
// the measured estimate once there is one, widened by the ack budget and
// doubled per consecutive go-back round up to the cap.
func (w *Window[T]) rto() sim.Time {
	base := w.cfg.RetransmitTimeout + w.ackBudget
	if w.srtt > 0 {
		base = max(w.srtt+4*w.rttvar, w.cfg.MinRTO+w.ackBudget)
	}
	limit := w.cfg.BackoffCap
	if limit <= 0 {
		limit = 64
	}
	return base * sim.Time(min(1<<min(w.backoff, 30), limit))
}

// Age reports how long ago r was (last) sent.
func (w *Window[T]) Age(r *SendRecord[T]) sim.Time { return w.eng.Now() - r.sentAt }

// Sample feeds r's acknowledgment round trip into the estimator (alpha 1/8,
// beta 1/4, the classic constants) and reports whether r was eligible: only
// under Config.AdaptiveRTO, and never a retransmitted packet (Karn's rule).
func (w *Window[T]) Sample(r *SendRecord[T]) bool {
	if !w.cfg.AdaptiveRTO || r.retransmitted {
		return false
	}
	sample := w.Age(r)
	switch {
	case sample <= 0:
	case w.srtt == 0:
		w.srtt = sample
		w.rttvar = sample / 2
	default:
		diff := w.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		w.rttvar += (diff - w.rttvar) / 4
		w.srtt += (sample - w.srtt) / 8
	}
	return true
}

// Restamp moves the send time of the record carrying seq, if it is still
// outstanding, to now — for an owner whose re-sends queue behind other NIC
// work and who wants the next interval measured from wire departure. The
// armed deadline stands until the next Arm.
func (w *Window[T]) Restamp(seq uint32) {
	for i := range w.records {
		if w.records[i].Frame.Seq == seq {
			w.records[i].sentAt = w.eng.Now()
			return
		}
	}
}

// goBack is one recovery round (timer expiry or honoured nack): every
// outstanding record is re-sent, in order, to exactly the children that
// have not acknowledged it — "the retransmission of the packet and the
// following ones will be performed only for the destinations which have
// not acknowledged".
func (w *Window[T]) goBack() {
	if len(w.records) == 0 {
		return
	}
	w.backoff++
	w.timeouts.Inc()
	now := w.eng.Now()
	for k := range w.records {
		r := &w.records[k]
		r.sentAt = now
		r.retransmitted = true
		for i, a := range w.acked {
			if SeqBefore(a, r.Frame.Seq) {
				w.resend(r.Frame, i)
			}
		}
	}
	w.Arm()
}

// Nack runs an immediate recovery round in response to a negative
// acknowledgment, at most once per Config.NackHoldoff so a burst of nacks
// collapses into one resend.
func (w *Window[T]) Nack() {
	if len(w.records) == 0 {
		return
	}
	now := w.eng.Now()
	if w.fastArmed && now-w.lastFast < w.cfg.NackHoldoff {
		return
	}
	w.fastArmed = true
	w.lastFast = now
	w.goBack()
}

// AckHold is the receiver side of delayed cumulative acknowledgments
// (Config.AckEvery / AckDelay): it counts accepted packets whose ack is
// being withheld and bounds the wait with one reusable timer. The owner's
// emit sends the cumulative ack. The zero value holds nothing and is inert;
// owners that never coalesce skip Init and pay for no timer. Armed, Flush
// and Absorb also take a nil hold, for an owner that makes one only where it
// coalesces.
type AckHold struct {
	cfg        *Config
	held       int
	timer      *sim.Timer
	suppressed *metrics.Counter
	emit       func()
}

// Init arms a hold for use: emit sends the owner's cumulative ack, and
// suppressed counts the per-packet acks the hold avoided.
func (h *AckHold) Init(eng *sim.Engine, cfg *Config, suppressed *metrics.Counter, emit func()) {
	h.cfg, h.suppressed, h.emit = cfg, suppressed, emit
	h.timer = eng.NewTimer(h.Flush)
}

// Armed reports whether the delay timer is pending.
func (h *AckHold) Armed() bool { return h != nil && h.timer != nil && h.timer.Pending() }

// Note accounts one accepted in-sequence packet: emit at every AckEvery-th,
// otherwise hold it and let the delay timer bound the wait.
func (h *AckHold) Note() {
	h.held++
	if h.held >= h.cfg.AckEvery {
		h.Flush()
		return
	}
	if !h.timer.Pending() {
		h.timer.ResetAfter(h.cfg.EffectiveAckDelay())
	}
}

// Flush emits the cumulative ack covering everything held (count
// threshold, delay timer, or teardown). With nothing held it does nothing.
func (h *AckHold) Flush() {
	if h == nil || h.held == 0 {
		return
	}
	h.suppressed.Add(uint64(h.held - 1))
	h.held = 0
	h.timer.Stop()
	h.emit()
}

// Absorb drops the held acks because the owner is about to send something
// whose cumulative field covers them anyway (a duplicate re-ack, a nack, a
// piggybacked ack), reporting whether anything was held.
func (h *AckHold) Absorb() bool {
	if h == nil || h.held == 0 {
		return false
	}
	h.suppressed.Add(uint64(h.held))
	h.held = 0
	h.timer.Stop()
	return true
}
