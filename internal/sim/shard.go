package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded runs several engines under adaptive conservative parallel
// discrete-event synchronization. The model partitions the simulated system
// into shards — each engine owns a disjoint set of entities and every event
// touching an entity is scheduled on its owner's engine — and advances the
// engines in synchronization windows. Cross-shard events queue in mailboxes
// owned by the caller and are delivered by the drain callback at the
// barrier between windows.
//
// Window sizing is per shard, from a per-shard-pair lookahead matrix
// L[s][d] — the minimum latency of any direct interaction from shard s to
// shard d (for a network fabric: the minimum latency of a cut link s→d).
// The coordinator closes the matrix transitively (shortest paths, plus the
// shortest cycle back through each shard), so shard d's window end is its
// earliest input time:
//
//	end(d) = min( min_{s≠d} next(s) + dist(s→d),  next(d) + cycle(d) )
//
// where next(s) is shard s's earliest pending timestamp. Any event that can
// ever reach d originates from some event pending now in some shard s and
// pays at least dist(s→d) of link latency on the way — including echoes of
// d's own events, which pay at least cycle(d).
//
// A window runs every busy shard (one with an event before its end) to one
// common end: the earliest of the busy shards' bounds. Per-shard ends would
// let two busy shards whose next events sit x apart alternate windows of
// lookahead+x and lookahead-x, and the barrier would charge the long one
// every window; a common end keeps their windows in phase. Ends only move
// earlier, so the bound stays conservative, and the shard that sets the
// common end stays busy, so every window makes progress. Compared to the
// lockstep rule (every shard stops at the global minimum plus the global
// minimum cut latency), the common end still stretches whenever the shards
// that could feed the busy ones are idle or far in the future. Shards with
// nothing to fire skip the dispatch entirely, and a window with exactly one
// busy shard runs to that shard's own bound inline on the coordinator, with
// no barrier at all.
//
// Determinism: events carry (time, domain-keyed sequence) keys assigned at
// their logical scheduling point (AllocKey on the source engine for
// cross-shard handoffs), so the union of all shards' timelines is exactly
// the serial engine's timeline — bit-identical, not merely equivalent.
// Window placement affects only when mailboxes drain, never the order
// events fire in.
type Sharded struct {
	engines   []*Engine
	lookahead Time // minimum finite pair lookahead (the lockstep window width)
	// dist[s][d] is the transitive earliest-input bound from s to d
	// (shortest path over the pair matrix); cyc[d] is the shortest cycle
	// d→…→d. Both saturate at infTime for unreachable pairs.
	dist [][]Time
	cyc  []Time

	// drain delivers every queued cross-shard event into its destination
	// engine (via AtKey) and reports how many it delivered. It runs at
	// window barriers only, when no engine goroutine is active. pending,
	// when non-nil, reports how many cross-shard events are queued without
	// delivering them, letting the coordinator skip empty drain passes.
	drain   func() int
	pending func() int

	windows     uint64
	crossEvents uint64
	stretched   uint64 // windows where some busy shard ran past the lockstep bound
	inlineWins  uint64 // single-busy-shard windows run without a barrier
	emptyDrains uint64 // drain passes skipped because no cross events were queued
	critical    uint64 // Σ over windows of the largest per-shard fired count

	// Per-window scratch, reused so steady-state coordination allocates
	// nothing.
	next  []Time
	has   []bool
	ends  []Time
	busy  []bool
	fired []uint64 // each busy shard's fired count when its window began

	// Wall-clock accounting: per-shard busy time inside windows and the
	// coordinator's total elapsed window time (per-shard wait = wall -
	// busy). Cheap enough to keep always on now that adaptive windows make
	// barriers rare; it never influences simulation results.
	busyNs []int64
	wallNs int64

	// The goroutines that run the busy shards other than the coordinator's
	// own in windows with two or more of them (index = shard; nil for shard
	// 0 and outside runWindows).
	workers []*shardWorker
	wg      sync.WaitGroup
}

// infTime is the saturation value for unreachable shard pairs — far beyond
// any virtual timestamp, low enough that sums cannot overflow.
const infTime = Time(math.MaxInt64 >> 2)

func satAdd(a, b Time) Time {
	if a >= infTime || b >= infTime {
		return infTime
	}
	if c := a + b; c < infTime {
		return c
	}
	return infTime
}

// NewSharded assembles a coordinator over the given engines with a uniform
// lookahead: every directed shard pair is assumed able to interact with the
// given minimum latency. lookahead must be positive: it is the minimum
// synchronization window width, and a non-positive width means the
// partition has a zero-latency cross-shard interaction, which conservative
// synchronization cannot run in parallel. drain may be nil when the caller
// guarantees no cross-shard events exist (single shard).
func NewSharded(engines []*Engine, lookahead Time, drain func() int) *Sharded {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewSharded with non-positive lookahead %v", lookahead))
	}
	n := len(engines)
	pair := make([][]Time, n)
	for s := range pair {
		pair[s] = make([]Time, n)
		for d := range pair[s] {
			if s != d {
				pair[s][d] = lookahead
			}
		}
	}
	return NewShardedMatrix(engines, pair, drain)
}

// NewShardedMatrix assembles a coordinator over the given engines with a
// per-shard-pair lookahead matrix: pair[s][d] is the minimum latency of any
// direct cross-shard interaction from shard s to shard d, and 0 means no
// direct interaction exists (the pair's effective lookahead then falls out
// of the transitive closure, or is unbounded when no path exists at all).
// Negative entries panic. drain may be nil when the caller guarantees no
// cross-shard events exist.
func NewShardedMatrix(engines []*Engine, pair [][]Time, drain func() int) *Sharded {
	n := len(engines)
	if n == 0 {
		panic("sim: NewSharded with no engines")
	}
	if len(pair) != n {
		panic(fmt.Sprintf("sim: lookahead matrix has %d rows for %d engines", len(pair), n))
	}
	if drain == nil {
		drain = func() int { return 0 }
	}
	dist := make([][]Time, n)
	for s := range dist {
		if len(pair[s]) != n {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries for %d engines", s, len(pair[s]), n))
		}
		dist[s] = make([]Time, n)
		for d, l := range pair[s] {
			switch {
			case l < 0:
				panic(fmt.Sprintf("sim: negative pair lookahead %v for shards %d->%d", l, s, d))
			case s == d || l == 0:
				dist[s][d] = infTime
			default:
				dist[s][d] = l
			}
		}
		dist[s][s] = 0
	}
	// Transitive closure (Floyd–Warshall): an event can reach shard d from
	// shard s through intermediates, paying every hop's lookahead on the
	// way. Shard counts are small, so the cubic pass is negligible.
	for k := 0; k < n; k++ {
		for s := 0; s < n; s++ {
			if dist[s][k] >= infTime {
				continue
			}
			for d := 0; d < n; d++ {
				if t := satAdd(dist[s][k], dist[k][d]); t < dist[s][d] {
					dist[s][d] = t
				}
			}
		}
	}
	cyc := make([]Time, n)
	look := infTime
	for d := range cyc {
		cyc[d] = infTime
		for m := 0; m < n; m++ {
			if m == d {
				continue
			}
			if t := satAdd(dist[d][m], dist[m][d]); t < cyc[d] {
				cyc[d] = t
			}
			if dist[d][m] > 0 && dist[d][m] < look {
				look = dist[d][m]
			}
		}
		dist[d][d] = infTime // self-influence goes through cyc, not dist
	}
	if n > 1 && look <= 0 {
		panic(fmt.Sprintf("sim: non-positive effective lookahead %v", look))
	}
	if look >= infTime {
		// Fully independent shards (or a single engine): any positive
		// window width works; windows are unbounded anyway.
		look = 1
	}
	return &Sharded{
		engines:   engines,
		lookahead: look,
		dist:      dist,
		cyc:       cyc,
		drain:     drain,
		next:      make([]Time, n),
		has:       make([]bool, n),
		ends:      make([]Time, n),
		busy:      make([]bool, n),
		fired:     make([]uint64, n),
		busyNs:    make([]int64, n),
	}
}

// SetPending installs a cheap probe for the number of queued cross-shard
// events. When it reports zero at a barrier the coordinator skips the drain
// pass entirely.
func (s *Sharded) SetPending(fn func() int) { s.pending = fn }

// Engines exposes the per-shard engines (index = shard).
func (s *Sharded) Engines() []*Engine { return s.engines }

// Lookahead reports the minimum synchronization window width (the smallest
// finite pair lookahead after transitive closure).
func (s *Sharded) Lookahead() Time { return s.lookahead }

// windowEnds computes each shard's conservative window end from the
// engines' earliest pending timestamps: the earliest time any cross-shard
// input could still arrive at the shard, per the transitively-closed
// lookahead matrix. It returns the global minimum pending time and whether
// any engine has events at all. Exported indirectly for tests via
// WindowEnds.
func (s *Sharded) windowEnds() (minT Time, any bool) {
	for i, e := range s.engines {
		s.next[i], s.has[i] = e.NextEventTime()
		if s.has[i] && (!any || s.next[i] < minT) {
			minT, any = s.next[i], true
		}
	}
	if !any {
		return 0, false
	}
	for d := range s.engines {
		end := infTime
		for m := range s.engines {
			if !s.has[m] {
				continue
			}
			var bound Time
			if m == d {
				bound = satAdd(s.next[m], s.cyc[m])
			} else {
				bound = satAdd(s.next[m], s.dist[m][d])
			}
			if bound < end {
				end = bound
			}
		}
		s.ends[d] = end
	}
	return minT, true
}

// WindowEnds exposes one window-end computation for tests: given the
// coordinator's engines' current queues, it returns each shard's window end
// (the conservative earliest-input-time bound). The slice is reused across
// calls.
func (s *Sharded) WindowEnds() []Time {
	if _, any := s.windowEnds(); !any {
		for i := range s.ends {
			s.ends[i] = infTime
		}
	}
	return s.ends
}

// Run fires events until the whole system is quiescent — every engine's
// queue empty and every mailbox drained — then aligns all clocks to the
// global maximum, exactly where a serial engine's clock would rest after
// Run.
func (s *Sharded) Run() {
	s.runWindows(0, false)
	target := Time(0)
	for _, e := range s.engines {
		if e.now > target {
			target = e.now
		}
	}
	for _, e := range s.engines {
		e.RunUntil(target)
	}
}

// RunUntil fires every event with timestamp <= t, then aligns all clocks
// to t — the sharded equivalent of Engine.RunUntil.
func (s *Sharded) RunUntil(t Time) {
	s.runWindows(t, true)
	for _, e := range s.engines {
		e.RunUntil(t)
	}
}

// drainBarrier runs the mailbox drain unless the pending probe reports
// there is nothing queued.
func (s *Sharded) drainBarrier() {
	if s.pending != nil && s.pending() == 0 {
		s.emptyDrains++
		return
	}
	s.crossEvents += uint64(s.drain())
}

// runWindows advances all shards window by window; with bounded set it
// stops once no pending event is <= limit.
func (s *Sharded) runWindows(limit Time, bounded bool) {
	n := len(s.engines)
	if n == 1 {
		// Degenerate partition: no parallelism, and windows are unbounded
		// (nothing can feed the lone shard but its own drain callback).
		e := s.engines[0]
		for {
			s.drainBarrier()
			t, ok := e.NextEventTime()
			if !ok || (bounded && t > limit) {
				return
			}
			end := infTime
			if bounded {
				end = limit + 1
			}
			t0 := time.Now()
			fired := e.fired
			e.RunBefore(end)
			s.busyNs[0] += time.Since(t0).Nanoseconds()
			s.critical += e.fired - fired
			s.windows++
		}
	}

	// Workers start at the first window with two busy shards, so a run of
	// inline windows spins nothing. Every way out stops them, a panic
	// included.
	defer s.stopWorkers()

	for {
		s.drainBarrier()
		minT, any := s.windowEnds()
		if !any || (bounded && minT > limit) {
			break
		}
		// Every busy shard runs to the earliest busy shard's bound (see the
		// type comment). The shard that sets it stays busy.
		common := infTime
		for d := range s.engines {
			if s.has[d] && s.next[d] < s.ends[d] {
				common = min(common, s.ends[d])
			}
		}
		lockstep := minT + s.lookahead // the non-adaptive window bound
		dispatched := 0
		lone := -1
		stretchedThis := false
		for d, e := range s.engines {
			end := min(s.ends[d], common)
			if bounded && end > limit+1 {
				// Clamp so events at exactly limit still fire but nothing
				// beyond it does; Time is integral, so limit+1 is the
				// smallest exclusive bound that includes limit.
				end = limit + 1
			}
			s.ends[d] = end
			s.busy[d] = s.has[d] && s.next[d] < end
			if s.busy[d] {
				dispatched++
				lone = d
				s.fired[d] = e.fired
				if end > lockstep {
					stretchedThis = true
				}
			}
		}
		if stretchedThis {
			s.stretched++
		}
		t0 := time.Now()
		if dispatched == 1 {
			// One busy shard: no barrier needed — its window cannot observe
			// any other shard, so run it on the coordinator and skip the
			// handoff entirely.
			e := s.engines[lone]
			e.RunBefore(s.ends[lone])
			s.busyNs[lone] += time.Since(t0).Nanoseconds()
			s.inlineWins++
		} else {
			s.runParallel()
		}
		s.wallNs += time.Since(t0).Nanoseconds()
		s.windows++
		var crit uint64
		for d, e := range s.engines {
			if s.busy[d] {
				crit = max(crit, e.fired-s.fired[d])
			}
		}
		s.critical += crit
	}
}

// shardWorker runs one shard's windows on its own goroutine. It spins on
// post, yielding with runtime.Gosched between probes, so it never parks and
// the coordinator never has to wake it.
type shardWorker struct {
	post  atomic.Uint64 // number of the window handed over; stopWindow asks it to exit
	done  atomic.Uint64 // number of the last window it finished
	end   Time          // the handed-over window's end, written before post
	fault any           // what the window panicked with, nil after runtime.Goexit; read after done
	ended bool          // the window did not return normally; read after done
	_     [64]byte      // keeps two workers' counters off one cache line
}

// stopWindow is the window number that asks a worker to exit.
const stopWindow = math.MaxUint64

// runParallel runs a window with two or more busy shards. The lowest busy
// shard runs on the coordinator's goroutine; every other one is handed to
// its worker by storing the window's number, and the coordinator then
// spins on the workers' completion numbers. No channel and no parked
// goroutine is on this path. A panic, or a runtime.Goexit, in a worker's
// event comes out here, on the caller's goroutine, as one in the
// coordinator's own shard does.
func (s *Sharded) runParallel() {
	if s.workers == nil {
		s.startWorkers()
	}
	k := s.windows + 1 // unique and never 0, the workers' initial number
	own := -1
	for d := range s.engines {
		if !s.busy[d] {
			continue
		}
		if own < 0 {
			own = d
			continue
		}
		w := s.workers[d]
		w.end = s.ends[d]
		w.post.Store(k)
	}
	s.runShard(own, s.ends[own])
	for d := own + 1; d < len(s.engines); d++ {
		if !s.busy[d] {
			continue
		}
		w := s.workers[d]
		for w.done.Load() != k {
			runtime.Gosched()
		}
		if w.ended { // stopWorkers, deferred, waits for the later shards
			if w.fault == nil {
				runtime.Goexit()
			}
			panic(w.fault)
		}
	}
}

// runShard runs shard d's window to end and books its busy time.
func (s *Sharded) runShard(d int, end Time) {
	t0 := time.Now()
	s.engines[d].RunBefore(end)
	s.busyNs[d] += time.Since(t0).Nanoseconds()
}

// startWorkers starts a worker for every shard but shard 0, which is busy
// whenever it is the lowest busy shard and then runs on the coordinator.
func (s *Sharded) startWorkers() {
	s.workers = make([]*shardWorker, len(s.engines))
	for d := 1; d < len(s.engines); d++ {
		w := &shardWorker{}
		s.workers[d] = w
		s.wg.Add(1)
		go s.work(d, w)
	}
}

// stopWorkers asks every worker to exit and waits until all have, so no
// goroutine outlives the run and none still touches an engine. A worker in
// the middle of a window finishes it first.
func (s *Sharded) stopWorkers() {
	for _, w := range s.workers {
		if w != nil {
			w.post.Store(stopWindow)
		}
	}
	s.wg.Wait()
	s.workers = nil
}

// work is shard d's worker loop.
func (s *Sharded) work(d int, w *shardWorker) {
	defer s.wg.Done()
	var seen uint64
	for {
		k := w.post.Load()
		switch k {
		case seen:
			runtime.Gosched()
		case stopWindow:
			return
		default:
			seen = k
			s.workWindow(d, w, k)
		}
	}
}

// workWindow runs one handed-over window and publishes its completion. A
// panic is recovered and handed to the coordinator with the completion; a
// runtime.Goexit is recorded the same way and then ends the worker.
func (s *Sharded) workWindow(d int, w *shardWorker, k uint64) {
	returned := false
	defer func() {
		if !returned {
			w.fault, w.ended = recover(), true
		}
		w.done.Store(k)
	}()
	s.runShard(d, w.end)
	returned = true
}

// Now reports the common clock. Outside windows all engines agree (Run and
// RunUntil align them); it panics if called while they disagree, which
// would mean a driver is reading time mid-window from outside the
// simulation.
func (s *Sharded) Now() Time {
	t := s.engines[0].now
	for _, e := range s.engines[1:] {
		if e.now != t {
			panic("sim: Sharded.Now with unaligned shard clocks")
		}
	}
	return t
}

// Kill unwinds the live processes of every shard.
func (s *Sharded) Kill() {
	for _, e := range s.engines {
		e.Kill()
	}
}

// LiveProcs totals unfinished processes across shards.
func (s *Sharded) LiveProcs() int {
	n := 0
	for _, e := range s.engines {
		n += e.LiveProcs()
	}
	return n
}

// Pending totals scheduled, not-yet-fired events across shards.
func (s *Sharded) Pending() int {
	n := 0
	for _, e := range s.engines {
		n += e.Pending()
	}
	return n
}

// EventsFired totals fired events across shards.
func (s *Sharded) EventsFired() uint64 {
	n := uint64(0)
	for _, e := range s.engines {
		n += e.EventsFired()
	}
	return n
}

// ShardStats summarizes one coordinator's execution.
type ShardStats struct {
	Shards      int      // number of shards
	LookaheadNs int64    // minimum window width (smallest finite pair lookahead)
	Windows     uint64   // synchronization windows executed
	CrossEvents uint64   // events delivered across shard boundaries
	Stretched   uint64   // windows where a busy shard ran past the lockstep bound
	Inline      uint64   // single-busy-shard windows run without a barrier
	EmptyDrains uint64   // drain passes skipped (no cross events queued)
	Events      []uint64 // per-shard fired-event counts
	// Critical is the sum over windows, inline ones included, of the
	// largest number of events one shard fired in the window: the events a
	// run would still execute one after another with a core per shard and
	// free barriers. Deterministic, unlike the wall-clock fields below.
	Critical uint64
	// BusyNs and WaitNs are wall-clock (non-deterministic): per-shard time
	// spent executing windows, and per-shard idle time at barriers (window
	// wall time minus busy).
	BusyNs []int64
	WaitNs []int64
	WallNs int64 // total wall time inside windows
}

// BarrierWaitShare reports the fraction of the total window wall time the
// average shard spent waiting at barriers — the headline conservative-sync
// overhead number (0 when nothing ran).
func (st ShardStats) BarrierWaitShare() float64 {
	if st.WallNs <= 0 || len(st.WaitNs) == 0 {
		return 0
	}
	var wait int64
	for _, w := range st.WaitNs {
		wait += w
	}
	return float64(wait) / (float64(st.WallNs) * float64(len(st.WaitNs)))
}

// SpeedupBound reports Σ Events / Critical: the speedup over one engine
// that the window placement allows if every event cost the same and
// barriers were free (0 when nothing ran).
func (st ShardStats) SpeedupBound() float64 {
	if st.Critical == 0 {
		return 0
	}
	var n uint64
	for _, e := range st.Events {
		n += e
	}
	return float64(n) / float64(st.Critical)
}

// CrossPerWindow reports the average number of cross-shard events a
// synchronization window moved.
func (st ShardStats) CrossPerWindow() float64 {
	if st.Windows == 0 {
		return 0
	}
	return float64(st.CrossEvents) / float64(st.Windows)
}

// Stats snapshots the coordinator's accounting. Call it between runs, not
// mid-window.
func (s *Sharded) Stats() ShardStats {
	st := ShardStats{
		Shards:      len(s.engines),
		LookaheadNs: int64(s.lookahead),
		Windows:     s.windows,
		CrossEvents: s.crossEvents,
		Stretched:   s.stretched,
		Inline:      s.inlineWins,
		EmptyDrains: s.emptyDrains,
		Critical:    s.critical,
		WallNs:      s.wallNs,
	}
	for i, e := range s.engines {
		st.Events = append(st.Events, e.fired)
		st.BusyNs = append(st.BusyNs, s.busyNs[i])
		wait := s.wallNs - s.busyNs[i]
		if wait < 0 {
			wait = 0
		}
		st.WaitNs = append(st.WaitNs, wait)
	}
	return st
}
