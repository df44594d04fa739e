package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The queue's differential test: byte-coded operations drive the engine,
// and every firing is checked against a reference that keeps the pending
// events as a plain list and fires the least (when, key) first.

// refEvent is one pending event as the reference sees it.
type refEvent struct {
	when Time
	key  uint64
	id   int
}

// queueCoverage records which corners of the queue a run reached.
type queueCoverage struct {
	burst      bool // three or more events fired at one nanosecond
	bucketEdge bool // an event fired exactly at a bucket boundary
	lastRing   bool // an event went into the ring's last bucket
	firstFar   bool // an event went into the first bucket past the horizon
	farToNear  bool // a far-heap event re-armed into the horizon
	nearToFar  bool // a ring or near-heap event re-armed past it
	ties       bool // the chooser was consulted with more than one candidate
	laps       map[uint64]bool

	bigRun        bool // a bucket of bigRun or more events became the run
	descending    bool // descendingRun events scheduled in a row, each before the last
	runMidCancel  bool // an event cancelled from the middle of the run
	runMidMove    bool // an event re-armed out of the middle of the run
	nearBeforeRun bool // an event at now, from a lower domain, ahead of the run's tail at now
	restart       bool // RunUntil restarted an idle ring at its new clock
}

// The run sizes the seed corpus must reach: a bucket of bigRun events, and
// streaks of descendingRun scheduled each before the last, so that a
// bucket's list is far from the order of the run it is sorted into.
const (
	bigRun        = 300
	descendingRun = 100
)

// queueRun is one decoded run: the engine under test, a second engine
// handing out atKey keys as a shard coordinator would, and the reference.
type queueRun struct {
	t       testing.TB
	e, src  *Engine
	ref     []refEvent
	ids     int
	handles []queueHandle
	timers  [4]*Timer
	timerID [4]int
	fired   []refEvent
	cov     queueCoverage

	last       refEvent // the latest raw event scheduled
	descending int      // how many in a row sorted before the one before
}

type queueHandle struct {
	ev *event
	id int
}

// atKeyDomain is the domain atKey keys come from; the engine under test
// never draws keys from it itself, so they stay unique.
const atKeyDomain = 3

func newQueueRun(t testing.TB, zeroChooser bool) *queueRun {
	r := &queueRun{t: t, e: NewEngine(), src: NewEngine()}
	r.cov.laps = map[uint64]bool{}
	r.e.GrowDomains(atKeyDomain - 1)
	r.src.GrowDomains(atKeyDomain)
	for i := range r.timers {
		r.timers[i] = r.e.NewTimer(func() {})
		r.timerID[i] = -1
	}
	if zeroChooser {
		r.e.SetChooser(func(n int) int {
			r.cov.ties = true
			return 0
		})
	}
	r.e.SetFireHook(r.onFire)
	return r
}

// least returns the reference's next event, or -1 when nothing is pending.
func (r *queueRun) least() int {
	best := -1
	for i, x := range r.ref {
		if best < 0 || x.when < r.ref[best].when || x.when == r.ref[best].when && x.key < r.ref[best].key {
			best = i
		}
	}
	return best
}

func (r *queueRun) find(id int) int {
	for i, x := range r.ref {
		if x.id == id {
			return i
		}
	}
	return -1
}

func (r *queueRun) drop(i int) {
	r.ref[i] = r.ref[len(r.ref)-1]
	r.ref = r.ref[:len(r.ref)-1]
}

func (r *queueRun) onFire(when Time, key uint64) {
	i := r.least()
	if i < 0 {
		r.t.Fatalf("fired (%d, %#x) with nothing pending in the reference", when, key)
	}
	if want := r.ref[i]; want.when != when || want.key != key {
		r.t.Fatalf("fired (%d, %#x), the reference's next is (%d, %#x)", when, key, want.when, want.key)
	}
	r.fired = append(r.fired, r.ref[i])
	r.drop(i)
	if n := len(r.fired); n >= 3 && r.fired[n-3].when == when && r.fired[n-2].when == when {
		r.cov.burst = true
	}
	if when > 0 && when%(1<<bucketShift) == 0 {
		r.cov.bucketEdge = true
	}
	r.cov.laps[r.e.cur/ringSize] = true
	// The fired event was the run's tail when the run still holds
	// bigRun-1 after it.
	if r.e.runN >= bigRun-1 {
		r.cov.bigRun = true
	}
}

// track records a freshly scheduled or re-armed event under id.
func (r *queueRun) track(ev *event, id int) {
	if i := r.find(id); i >= 0 {
		r.drop(i)
	}
	r.ref = append(r.ref, refEvent{ev.when, ev.seq, id})
	if s := slotOf(ev.when); s > r.e.cur {
		switch s - r.e.cur {
		case ringSize - 1:
			r.cov.lastRing = true
		case ringSize:
			r.cov.firstFar = true
		}
	}
}

// scheduled tracks a freshly scheduled raw event and keeps its handle for
// later cancels and re-arms.
func (r *queueRun) scheduled(ev *event) {
	id := r.newID()
	r.track(ev, id)
	r.handles = append(r.handles, queueHandle{ev, id})
	x := refEvent{ev.when, ev.seq, id}
	if x.when < r.last.when || x.when == r.last.when && x.key < r.last.key {
		r.descending++
	} else {
		r.descending = 1
	}
	r.last = x
	r.cov.descending = r.cov.descending || r.descending >= descendingRun
	if n := len(r.e.run); n > 0 && ev.where == inNear && ev.when == r.e.Now() {
		tail := r.e.run[n-1]
		if tail.when == ev.when && ev.seq>>(64-domainBits) < tail.seq>>(64-domainBits) {
			r.cov.nearBeforeRun = true
		}
	}
}

// inRunMiddle reports whether ev sits in the run but not at its tail.
func (r *queueRun) inRunMiddle(ev *event) bool {
	return ev.where == inRun && int(ev.index) < len(r.e.run)-1
}

func (r *queueRun) newID() int {
	r.ids++
	return r.ids
}

// moved notes a re-arm that crossed the horizon.
func (r *queueRun) moved(from, to queue) {
	if from == inFar && to != inFar {
		r.cov.farToNear = true
	}
	if from != inFar && to == inFar {
		r.cov.nearToFar = true
	}
}

// maxQueueEvents bounds a run's events, so that the reference's linear
// scans keep every fuzz input quick.
const maxQueueEvents = 1 << 10

// chain returns an event body that, while links remain, schedules its
// successor step later from inside the firing callback.
func (r *queueRun) chain(links int, step Time) func() {
	return func() {
		if links > 0 && r.ids < maxQueueEvents {
			r.scheduled(r.e.schedule(r.e.curDom, r.e.now+step, r.chain(links-1, step)))
		}
	}
}

// queueBytes is a cursor over the fuzz input; reads past the end give 0.
type queueBytes struct {
	b []byte
	i int
}

func (q *queueBytes) next() byte {
	if q.i >= len(q.b) {
		q.i++
		return 0
	}
	q.i++
	return q.b[q.i-1]
}

// at decodes a time operand — a mode byte and a 16-bit value — relative to
// the engine's clock, so every decoded time is schedulable.
func (r *queueRun) at(q *queueBytes) Time {
	mode, v := q.next(), Time(q.next())<<8|Time(q.next())
	now := r.e.Now()
	var t Time
	switch mode % 4 {
	case 0:
		t = now + v
	case 1: // up to ~1 ms out: where retransmit timers live
		t = now + v<<bucketShift
	case 2: // exactly on a bucket boundary
		t = Time((slotOf(now) + 1 + uint64(v)) << bucketShift)
	case 3: // within 128 ns of the horizon's edge
		t = Time((r.e.cur+ringSize)<<bucketShift) + Time(int8(v))
	}
	return max(t, now)
}

// runQueueOps decodes and runs data, checking every firing and every run
// boundary against the reference, and returns the fired timeline.
func runQueueOps(tb testing.TB, data []byte, zeroChooser bool) ([]refEvent, queueCoverage) {
	r := newQueueRun(tb, zeroChooser)
	e := r.e
	q := &queueBytes{b: data}
	for q.i < len(q.b) && r.ids < maxQueueEvents {
		switch q.next() % 9 {
		case 0: // At: a same-ns burst of 1-4 chains of 0-63 links
			at := r.at(q)
			x, step := q.next(), Time(q.next())*4
			for range 1 + x%4 {
				r.scheduled(e.schedule(e.curDom, at, r.chain(int(x/4), step)))
			}
		case 1: // AtDomain
			owner := uint32(q.next() % atKeyDomain)
			r.scheduled(e.schedule(owner, r.at(q), func() {}))
		case 2: // AtKey, keyed by another engine as a cross-shard handoff is
			owner := uint32(q.next() % atKeyDomain)
			r.scheduled(e.atKey(r.at(q), r.src.AllocKey(atKeyDomain), owner, func() {}))
		case 3: // cancel a still-pending event
			if h := r.pendingHandle(q.next()); h != nil {
				r.cov.runMidCancel = r.cov.runMidCancel || r.inRunMiddle(h.ev)
				e.cancel(h.ev)
				r.drop(r.find(h.id))
			}
		case 4: // re-arm a still-pending raw handle, as Timer.Reset does
			h := r.pendingHandle(q.next())
			at := r.at(q)
			if h != nil {
				from, owner, fn := h.ev.where, h.ev.owner, h.ev.fn
				r.cov.runMidMove = r.cov.runMidMove || r.inRunMiddle(h.ev)
				e.cancel(h.ev)
				h.ev = e.schedule(owner, at, fn)
				r.moved(from, h.ev.where)
				r.track(h.ev, h.id)
			}
		case 5: // Timer.Reset
			i := q.next() % byte(len(r.timers))
			tm, at := r.timers[i], r.at(q)
			armed := r.find(r.timerID[i]) >= 0
			if armed != tm.Pending() {
				tb.Fatalf("timer %d: Pending %v, the reference says %v", i, tm.Pending(), armed)
			}
			var from queue
			if armed {
				from = tm.ev.where
			} else {
				r.timerID[i] = r.newID()
			}
			tm.Reset(at)
			if armed {
				r.moved(from, tm.ev.where)
			}
			r.track(tm.ev, r.timerID[i])
		case 6: // Timer.Stop
			i := q.next() % byte(len(r.timers))
			armed := r.find(r.timerID[i]) >= 0
			if r.timers[i].Stop() != armed {
				tb.Fatalf("timer %d: Stop disagrees with the reference (armed %v)", i, armed)
			}
			if armed {
				r.drop(r.find(r.timerID[i]))
			}
		case 7: // RunUntil
			at := r.at(q)
			cur, fired := e.cur, len(r.fired)
			e.RunUntil(at)
			if e.Now() != at {
				tb.Fatalf("RunUntil(%d) left the clock at %d", at, e.Now())
			}
			// The ring moved on with nothing fired in the new bucket and
			// nothing left short of the far heap.
			if e.cur == slotOf(at) && e.cur > cur && e.Pending() == len(e.far) &&
				(len(r.fired) == fired || slotOf(r.fired[len(r.fired)-1].when) < e.cur) {
				r.cov.restart = true
			}
			if i := r.least(); i >= 0 && r.ref[i].when <= at {
				tb.Fatalf("RunUntil(%d) left an event at %d pending", at, r.ref[i].when)
			}
		case 8: // RunBefore
			end := r.at(q)
			e.RunBefore(end)
			next, ok := e.NextEventTime()
			i := r.least()
			if ok != (i >= 0) || ok && next != r.ref[i].when {
				tb.Fatalf("NextEventTime = %d, %v; the reference holds %d events", next, ok, len(r.ref))
			}
			if ok && next < end {
				tb.Fatalf("RunBefore(%d) left an event at %d pending", end, next)
			}
		}
		if e.Pending() != len(r.ref) {
			tb.Fatalf("Pending = %d, the reference holds %d", e.Pending(), len(r.ref))
		}
	}
	e.Run()
	if len(r.ref) != 0 || e.Pending() != 0 {
		tb.Fatalf("drained engine: %d pending, the reference holds %d", e.Pending(), len(r.ref))
	}
	return r.fired, r.cov
}

// pendingHandle picks a raw handle by b, or nil unless its event is still
// pending.
func (r *queueRun) pendingHandle(b byte) *queueHandle {
	if len(r.handles) == 0 {
		return nil
	}
	h := &r.handles[int(b)%len(r.handles)]
	if r.find(h.id) < 0 {
		return nil
	}
	return h
}

// FuzzQueueOrder checks the fire order of any mix of schedule, atKey,
// cancel, a raw handle's re-arm, Timer.Reset, Timer.Stop, RunUntil and
// RunBefore against the reference, and that a chooser always picking 0
// gives the same timeline as none.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, _ := runQueueOps(t, data, false)
		chosen, _ := runQueueOps(t, data, true)
		if !reflect.DeepEqual(plain, chosen) {
			t.Fatalf("a chooser returning 0 changed the timeline:\nplain  %v\nchosen %v", plain, chosen)
		}
	})
}

// TestQueueOrderCorpusCoverage pins what the seed corpus under
// testdata/fuzz reaches, so the cases the fuzz target starts from cannot
// silently stop exercising the queue's edges.
func TestQueueOrderCorpusCoverage(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzQueueOrder", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus (%v)", err)
	}
	var all queueCoverage
	laps := 0
	for _, name := range files {
		data := readCorpusBytes(t, name)
		_, cov := runQueueOps(t, data, true)
		all.burst = all.burst || cov.burst
		all.bucketEdge = all.bucketEdge || cov.bucketEdge
		all.lastRing = all.lastRing || cov.lastRing
		all.firstFar = all.firstFar || cov.firstFar
		all.farToNear = all.farToNear || cov.farToNear
		all.nearToFar = all.nearToFar || cov.nearToFar
		all.ties = all.ties || cov.ties
		all.bigRun = all.bigRun || cov.bigRun
		all.descending = all.descending || cov.descending
		all.runMidCancel = all.runMidCancel || cov.runMidCancel
		all.runMidMove = all.runMidMove || cov.runMidMove
		all.nearBeforeRun = all.nearBeforeRun || cov.nearBeforeRun
		all.restart = all.restart || cov.restart
		laps = max(laps, len(cov.laps))
	}
	for _, c := range []struct {
		what string
		ok   bool
	}{
		{"a same-ns burst", all.burst},
		{"a firing exactly on a bucket boundary", all.bucketEdge},
		{"an event in the ring's last bucket", all.lastRing},
		{"an event in the first bucket past the horizon", all.firstFar},
		{"a far timer re-armed into the horizon", all.farToNear},
		{"a near event re-armed out of it", all.nearToFar},
		{"a chooser choosing among tied domains", all.ties},
		{"events fired on four ring laps (three wraps)", laps >= 4},
		{fmt.Sprintf("a run of %d events", bigRun), all.bigRun},
		{fmt.Sprintf("%d events scheduled in a row, each before the last", descendingRun), all.descending},
		{"a cancel in the middle of the run", all.runMidCancel},
		{"a re-arm out of the middle of the run", all.runMidMove},
		{"an event at now from a lower domain, ahead of the run's tail", all.nearBeforeRun},
		{"RunUntil restarting an idle ring", all.restart},
	} {
		if !c.ok {
			t.Errorf("the seed corpus never reaches %s", c.what)
		}
	}
}

// readCorpusBytes reads a one-value []byte corpus file of `go test -fuzz`.
func readCorpusBytes(t *testing.T, name string) []byte {
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", name)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: value is not a []byte", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// String renders a fired event for failure messages.
func (x refEvent) String() string { return fmt.Sprintf("%d/%#x", x.when, x.key) }
