package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel sweep execution. Every sweep point the harness measures is an
// independent experiment: it builds its own cluster (its own engine, its
// own RNGs seeded from Options.Seed) and returns plain numbers. Points
// therefore fan out across goroutines with no shared mutable state, and —
// because each point's result is a pure function of (Options, point
// parameters) — the reassembled output is byte-identical to a serial run.
//
// The one shared-state exception is Options.Metrics. Every cluster built
// on a shared Registry counts into the same blocks, and what is read back
// out of it is a difference between two snapshots: a fault-campaign point
// checks conservation and its delivery census on the registry's growth over
// its own run, and a Reporter prints the growth since the last mark. Points
// running at once would land in each other's differences (and a gauge's
// level would be whichever cluster set it last), so wiring a shared
// Registry forces the sweep serial. It would be a data race besides: the
// instruments are plain integers with one writer each, and points running
// at once would both write the blocks the registry hands them.

// workerCount resolves how many goroutines a sweep over n points may use:
// Options.Workers when positive, else GOMAXPROCS, clamped to n, and forced
// to 1 whenever a shared metrics registry is wired. When each point itself
// runs sharded (Options.Shards > 1), every point already occupies Shards
// OS threads, so the fan-out is further capped to keep workers x Shards
// within GOMAXPROCS: intra-run and inter-run parallelism share one CPU
// budget instead of multiplying into oversubscription.
func (o Options) workerCount(n int) int {
	if o.Metrics != nil {
		return 1
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if o.Shards > 1 {
		if cap := runtime.GOMAXPROCS(0) / o.Shards; w > cap {
			w = cap
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelMap evaluates fn over items on up to workers goroutines and
// returns the results in input order. workers <= 1 runs serially on the
// calling goroutine. A panic in any point is re-raised in the caller after
// all workers stop.
func parallelMap[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i, it := range items {
			out[i] = fn(i, it)
		}
		return out
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("harness: sweep point panicked: %v", panicked))
	}
	return out
}
