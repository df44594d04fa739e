package gm

// The send window's and the delayed-ack hold's own rules, pinned once for
// every owner: a unicast connection is the fan-out-1 column, a multicast
// group entry the fan-out-3 column. End-to-end loss, nack and RTO behaviour
// through real NICs stays in the gm and core reliability tests.

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

type resent struct {
	seq   uint32
	child int
}

// winRig is a window with recording owner callbacks and no NIC around it.
type winRig struct {
	eng      *sim.Engine
	cfg      Config
	w        Window[int]
	timeouts metrics.Counter
	resent   []resent
	retired  []int // Data of retired records, in retirement order
}

func newWinRig(fanout int, base uint32, ackBudget sim.Time, mut func(*Config)) *winRig {
	r := &winRig{eng: sim.NewEngine(), cfg: DefaultConfig()}
	if mut != nil {
		mut(&r.cfg)
	}
	r.w.Init(r.eng, &r.cfg, ackBudget, &r.timeouts,
		func(fr *Frame, child int) { r.resent = append(r.resent, resent{fr.Seq, child}) },
		func(rec *SendRecord[int]) { r.retired = append(r.retired, rec.Data) })
	r.w.Reset(fanout, base)
	return r
}

// file sends packets first..last (serial order, so it may cross the wrap).
func (r *winRig) file(first, last uint32) {
	for seq := first; SeqLEQ(seq, last); seq++ {
		r.w.File(&Frame{Seq: seq}, int(seq))
	}
}

// ackAll acknowledges seq from every child.
func (r *winRig) ackAll(seq uint32) (retired int) {
	for c := range r.w.acked {
		retired += r.w.Ack(c, seq)
	}
	return retired
}

func TestWindow(t *testing.T) {
	adaptive := func(c *Config) { c.AdaptiveRTO = true }
	const budget = 70 * sim.Microsecond
	cases := []struct {
		name      string
		base      uint32
		ackBudget sim.Time
		mut       func(*Config)
		run       func(t *testing.T, r *winRig, fanout int)
	}{
		{name: "cumulative retire waits for the slowest child", run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 4)
			for c := 0; c < fanout-1; c++ {
				if n := r.w.Ack(c, 4); n != 0 {
					t.Fatalf("child %d of %d acked and %d records retired", c, fanout, n)
				}
			}
			last := fanout - 1
			if n := r.w.Ack(last, 2); n != 2 {
				t.Fatalf("last child acked 2: retired %d, want 2", n)
			}
			if n := r.w.Ack(last, 4); n != 2 || r.w.Len() != 0 {
				t.Fatalf("last child acked 4: retired %d leaving %d, want 2 leaving 0", n, r.w.Len())
			}
			if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(r.retired, want) {
				t.Fatalf("retired %v, want %v in sequence order", r.retired, want)
			}
			if r.w.Arm(); r.w.Armed() {
				t.Fatal("timer still armed with nothing outstanding")
			}
		}},
		{name: "stale and non-child acks are ignored", run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 3)
			r.ackAll(2)
			before := append([]uint32(nil), r.w.acked...)
			for _, c := range []int{-1, fanout, fanout + 7} {
				if n := r.w.Ack(c, 3); n != 0 {
					t.Fatalf("ack from non-child index %d retired %d records", c, n)
				}
			}
			if n := r.ackAll(1); n != 0 {
				t.Fatalf("stale ack retired %d records", n)
			}
			if !reflect.DeepEqual(r.w.acked, before) || r.w.Len() != 1 {
				t.Fatalf("ignored acks moved state: acked %v (was %v), %d records", r.w.acked, before, r.w.Len())
			}
		}},
		{name: "go-back resends only what each child still owes", run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 3)
			r.w.Ack(0, 1)                           // child 0 owes 2,3; every other child owes 1,2,3
			r.eng.RunUntil(r.cfg.RetransmitTimeout) // exactly one round
			var want []resent
			for seq := uint32(1); seq <= 3; seq++ {
				for c := 0; c < fanout; c++ {
					if c == 0 && seq == 1 {
						continue
					}
					want = append(want, resent{seq, c})
				}
			}
			if got := r.resent[:len(want)]; !reflect.DeepEqual(got, want) {
				t.Fatalf("first round resent %v, want %v", got, want)
			}
		}},
		{name: "nack hold-off is honoured at virtual time 0 and expires", run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 1)
			if r.eng.Now() != 0 {
				t.Fatalf("test requires virtual time 0, engine at %v", r.eng.Now())
			}
			// A bare `lastFast != 0` check reads a t=0 round as "never fired".
			r.w.Nack()
			r.w.Nack()
			if got := r.timeouts.Value(); got != 1 {
				t.Fatalf("t=0 nack burst ran %d go-back rounds, want 1", got)
			}
			hold := r.cfg.NackHoldoff
			r.eng.At(hold/2, r.w.Nack)               // inside the hold-off: suppressed
			r.eng.At(hold+sim.Microsecond, r.w.Nack) // past it: fires
			r.eng.RunUntil(hold + 2*sim.Microsecond)
			if got := r.timeouts.Value(); got != 2 {
				t.Fatalf("go-back rounds = %d, want 2 (t=0, and one after the hold-off)", got)
			}
			if got := len(r.resent); got != 2*fanout {
				t.Fatalf("%d resends over two rounds, want %d", got, 2*fanout)
			}
			r.ackAll(1)
			r.w.Nack()
			if got := r.timeouts.Value(); got != 2 {
				t.Fatal("nack on a drained window ran a go-back round")
			}
		}},
		{name: "backoff doubles per round and resets only on progress", run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 2)
			rto := r.cfg.RetransmitTimeout
			r.eng.RunUntil(rto + 2*rto + 1) // rounds at rto and rto+2*rto
			if r.w.backoff != 2 || r.w.rto() != 4*rto {
				t.Fatalf("after two rounds backoff=%d rto=%v, want 2 and %v", r.w.backoff, r.w.rto(), 4*rto)
			}
			r.ackAll(0) // duplicate ack chatter: retires nothing
			if r.w.backoff != 2 {
				t.Fatalf("no-progress ack changed backoff to %d", r.w.backoff)
			}
			r.ackAll(1)
			if r.w.backoff != 0 || r.w.Len() != 1 {
				t.Fatalf("progress left backoff=%d records=%d, want 0 and 1", r.w.backoff, r.w.Len())
			}
			r.cfg.BackoffCap = 0 // zero means a cap factor of 64
			r.w.backoff = 20
			if r.w.rto() != 64*rto {
				t.Fatalf("uncapped rto %v, want %v", r.w.rto(), 64*rto)
			}
		}},
		{name: "Karn's rule and the adaptive estimate", mut: adaptive, ackBudget: budget, run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 2)
			r.eng.RunUntil(r.w.rto()) // one go-back round: both are now retransmitted
			r.eng.RunUntil(r.eng.Now() + 10*sim.Microsecond)
			if r.w.Sample(&r.w.records[0]) || r.w.srtt != 0 {
				t.Fatalf("retransmitted record was RTT-sampled (srtt %v)", r.w.srtt)
			}
			r.ackAll(2)
			r.file(3, 3)
			r.eng.RunUntil(r.eng.Now() + 10*sim.Microsecond)
			if !r.w.Sample(&r.w.records[0]) || r.w.srtt != 10*sim.Microsecond {
				t.Fatalf("clean record not sampled: srtt %v, want 10µs", r.w.srtt)
			}
			// 10µs + 4*5µs is far below the floor, and the floor carries the budget.
			if want := r.cfg.MinRTO + budget; r.w.rto() != want {
				t.Fatalf("adaptive rto %v, want MinRTO+ackBudget = %v", r.w.rto(), want)
			}
		}},
		{name: "fixed interval carries the ack budget and never samples", ackBudget: budget, run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 1)
			if want := r.cfg.RetransmitTimeout + budget; r.w.rto() != want {
				t.Fatalf("fixed rto %v, want RetransmitTimeout+ackBudget = %v", r.w.rto(), want)
			}
			r.eng.RunUntil(5 * sim.Microsecond)
			if r.w.Sample(&r.w.records[0]) {
				t.Fatal("sampled without AdaptiveRTO")
			}
		}},
		{name: "restamp moves the next deadline", run: func(t *testing.T, r *winRig, fanout int) {
			r.file(1, 2)
			r.eng.RunUntil(100 * sim.Microsecond)
			r.w.Restamp(1)
			r.w.Restamp(9) // not outstanding: nothing to move
			r.w.Arm()
			if want := 100*sim.Microsecond + r.cfg.RetransmitTimeout; r.w.timer.When() != want {
				t.Fatalf("deadline %v after restamp, want %v", r.w.timer.When(), want)
			}
		}},
		{name: "serial-number wraparound", base: 0xFFFFFFFC, run: func(t *testing.T, r *winRig, fanout int) {
			r.file(0xFFFFFFFD, 2) // ...fd fe ff 0 1 2
			if r.w.Len() != 6 || !r.w.Owed(0xFFFFFFFD) || !r.w.Owed(2) {
				t.Fatalf("%d records across the wrap, want 6 all owed", r.w.Len())
			}
			if n := r.ackAll(0xFFFFFFFF); n != 3 {
				t.Fatalf("ack just below the wrap retired %d, want 3", n)
			}
			if n := r.ackAll(0xFFFFFFFE); n != 0 {
				t.Fatalf("stale pre-wrap ack retired %d", n)
			}
			if n := r.ackAll(1); n != 2 || r.w.Owed(1) || !r.w.Owed(2) {
				t.Fatalf("post-wrap ack retired %d (owed(1)=%v owed(2)=%v), want 2", n, r.w.Owed(1), r.w.Owed(2))
			}
			r.eng.RunUntil(r.cfg.RetransmitTimeout) // one round: only the survivor goes back
			if got := r.resent[:fanout]; got[0].seq != 2 || got[fanout-1].seq != 2 {
				t.Fatalf("post-wrap go-back resent %v, want seq 2 only", got)
			}
		}},
	}
	for _, fanout := range []int{1, 3} {
		for _, tc := range cases {
			t.Run(tc.name+"/fanout="+string(rune('0'+fanout)), func(t *testing.T) {
				r := newWinRig(fanout, tc.base, tc.ackBudget, tc.mut)
				tc.run(t, r, fanout)
				r.eng.Kill()
			})
		}
	}
}

// TestWindowSteadyStateAllocs: on a warm window, filing a packet, taking
// the ack from every child and retiring it allocates nothing — the records
// live by value in one reused slice and the timer re-arms in place.
func TestWindowSteadyStateAllocs(t *testing.T) {
	const fanout = 4
	r := newWinRig(fanout, 0, 0, nil)
	fr := &Frame{}
	cycle := func() {
		fr.Seq++
		r.w.File(fr, 0)
		r.ackAll(fr.Seq)
		r.w.Arm()
		r.retired = r.retired[:0]
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("file → ack from %d children → retire allocates %v objects per packet, want 0", fanout, allocs)
	}
	if r.w.Len() != 0 || r.w.Armed() {
		t.Fatalf("window not drained: %d records, armed=%v", r.w.Len(), r.w.Armed())
	}
}

func TestAckHold(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.AckEvery = 4
	var suppressed metrics.Counter
	emitted := 0
	var h AckHold
	if h.Absorb() || h.Armed() {
		t.Fatal("zero hold reports held acks or an armed timer")
	}
	h.Flush() // inert: must not touch the nil timer
	h.Init(eng, &cfg, &suppressed, func() { emitted++ })

	// Count threshold: the AckEvery-th packet flushes; the other three
	// per-packet acks were avoided.
	for i := 0; i < 3; i++ {
		h.Note()
	}
	if emitted != 0 || !h.Armed() {
		t.Fatalf("below the threshold: emitted=%d armed=%v, want 0 and armed", emitted, h.Armed())
	}
	h.Note()
	if emitted != 1 || suppressed.Value() != 3 || h.Armed() {
		t.Fatalf("at the threshold: emitted=%d suppressed=%d armed=%v, want 1, 3, disarmed", emitted, suppressed.Value(), h.Armed())
	}

	// Delay bound: two held packets flush when the timer armed by the first
	// expires, not before.
	h.Note()
	eng.RunUntil(cfg.EffectiveAckDelay() / 2)
	h.Note()
	eng.RunUntil(cfg.EffectiveAckDelay() - 1)
	if emitted != 1 {
		t.Fatal("held ack flushed before the delay bound")
	}
	eng.RunUntil(cfg.EffectiveAckDelay())
	if emitted != 2 || suppressed.Value() != 4 {
		t.Fatalf("delay flush: emitted=%d suppressed=%d, want 2 and 4", emitted, suppressed.Value())
	}

	// Absorb: the owner's own (n)ack covers everything held.
	h.Note()
	h.Note()
	if !h.Absorb() || emitted != 2 || suppressed.Value() != 6 || h.Armed() {
		t.Fatalf("absorb: emitted=%d suppressed=%d armed=%v, want 2, 6, disarmed", emitted, suppressed.Value(), h.Armed())
	}
	if h.Absorb() {
		t.Fatal("second absorb found held acks")
	}
	h.Flush()
	if emitted != 2 {
		t.Fatal("flush of an empty hold emitted an ack")
	}
	eng.Kill()
}
