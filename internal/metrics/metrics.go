// Package metrics is the unified observability layer of the simulated
// Myrinet/GM stack. Every layer — the fabric (myrinet), the NIC hardware
// (lanai), the GM firmware (gm), and the multicast extension (core) —
// registers its counters, gauges, and histograms here, keyed by component
// and node, so a run can be explained the way the paper explains its
// curves: where the LANai CPU cycles went, how busy the DMA engines were,
// how many retransmissions the loss recovery paid, where buffer pools
// stalled.
//
// Instruments are allocation-light and nil-safe: a disabled registry (or a
// nil one) hands out nil instruments, and every method on a nil instrument
// is a no-op. Instrument updates never touch the simulation engine, so
// enabling metrics cannot change any simulated timestamp — a property the
// determinism tests pin down.
//
// Instruments are lock-free atomics: a sharded run (cluster.WithShards)
// updates one registry from several engine goroutines concurrently, and
// because every operation is commutative (sums, monotone high-water marks,
// bucket counts), final values stay deterministic no matter how shard
// execution interleaves. Registry lookups take a mutex — instruments are
// created lazily, sometimes mid-run.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Key identifies one instrument: the component (layer) that owns it, the
// node it belongs to (NodeFabric for fabric-wide instruments), and its
// name.
type Key struct {
	Component string `json:"component"`
	Node      int    `json:"node"`
	Name      string `json:"name"`
}

// NodeFabric is the Node value for instruments that belong to no single
// node (fabric-wide link counters, switch contention).
const NodeFabric = -1

func (k Key) String() string {
	if k.Node == NodeFabric {
		return k.Component + "." + k.Name
	}
	return fmt.Sprintf("%s[%d].%s", k.Component, k.Node, k.Name)
}

// Registry holds a run's instruments. The zero value is unusable; build
// one with New (enabled) or Disabled (all instruments are no-ops).
type Registry struct {
	disabled bool
	mu       sync.Mutex
	scopes   map[scopeKey]*scope
	// last is the scope of the previous lookup. A component registers all
	// its instruments for one node back to back, so building a cluster
	// costs one map insertion per (component, node), not one per name.
	last *scope
}

type scopeKey struct {
	component string
	node      int
}

// scope holds the instruments one component registered for one node, a
// handful each, found by scanning for the name.
type scope struct {
	scopeKey
	counters []named[*Counter]
	gauges   []named[*Gauge]
	hists    []named[*Histogram]
}

type named[T any] struct {
	name string
	inst T
}

// New returns an enabled registry.
func New() *Registry {
	return &Registry{scopes: make(map[scopeKey]*scope)}
}

// Disabled returns a registry whose instrument constructors all return
// nil, making every instrument operation a no-op.
func Disabled() *Registry { return &Registry{disabled: true} }

// Ensure returns r unchanged when non-nil, else a fresh enabled registry.
// Components use it so that a caller who wires no registry still gets
// working counters (the legacy Stats accessors read them).
func Ensure(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return New()
}

// Enabled reports whether the registry hands out live instruments.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

// scopeOf returns (creating on first use) the scope of one component on
// one node. The caller holds r.mu.
func (r *Registry) scopeOf(component string, node int) *scope {
	k := scopeKey{component, node}
	if r.last != nil && r.last.scopeKey == k {
		return r.last
	}
	sc, ok := r.scopes[k]
	if !ok {
		sc = &scope{scopeKey: k}
		r.scopes[k] = sc
	}
	r.last = sc
	return sc
}

// instrument returns the named instrument of one of a scope's lists,
// making and appending it on first use.
func instrument[T any](list *[]named[T], name string, mk func() T) T {
	for _, e := range *list {
		if e.name == name {
			return e.inst
		}
	}
	inst := mk()
	*list = append(*list, named[T]{name, inst})
	return inst
}

// Counter returns (creating on first use) the named counter, or nil when
// the registry is disabled.
func (r *Registry) Counter(component string, node int, name string) *Counter {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return instrument(&r.scopeOf(component, node).counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns (creating on first use) the named gauge, or nil when the
// registry is disabled.
func (r *Registry) Gauge(component string, node int, name string) *Gauge {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return instrument(&r.scopeOf(component, node).gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns (creating on first use) the named histogram, or nil
// when the registry is disabled.
func (r *Registry) Histogram(component string, node int, name string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return instrument(&r.scopeOf(component, node).hists, name, newHistogram)
}

// less orders keys by (component, node, name), the order of a Snapshot.
func (k Key) less(o Key) bool {
	if k.Component != o.Component {
		return k.Component < o.Component
	}
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	return k.Name < o.Name
}

// Counter is a monotonically increasing count. All methods are no-ops on
// a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// AddInt adds n when positive (negative and zero are ignored); it exists
// so duration-like int64 quantities can be accumulated without a cast at
// every call site.
func (c *Counter) AddInt(n int64) {
	if c != nil && n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level with a high-water mark. All methods are
// no-ops on a nil receiver. Gauges track entity-local levels (one shard
// writes, so Add has no lost-update problem in practice); the high-water
// mark is a CAS loop so even a shared gauge's High stays monotone.
type Gauge struct{ v, high atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Add moves the level by d (negative allowed).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v.Add(d))
}

// Value reports the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High reports the high-water mark (0 on nil).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// HistBuckets is the number of fixed log2 histogram buckets: bucket 0
// holds observations <= 0, bucket i (1..64) holds observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const HistBuckets = 65

// Histogram accumulates observations into fixed log2 buckets — no
// allocation per observation, constant memory, and enough resolution to
// tell a 5 µs token wait from a 500 µs retransmission timeout. All
// methods are no-ops on a nil receiver.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Int64
	// min and max hold the extremes offset by nothing, with hasObs
	// flagging whether any observation arrived (so 0 needn't be a
	// sentinel); all three advance by CAS, keeping the final values
	// deterministic under concurrent observers.
	min     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// newHistogram seeds the CAS extremes so the first Observe needs no
// special case (the registry is the only constructor).
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// BucketOf reports the bucket index an observation lands in.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow reports the smallest positive value of bucket i (0 for
// bucket 0).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[BucketOf(v)].Add(1)
}

// Count reports how many observations were folded in (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min and Max report the extreme observations (0 on nil or empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean reports the arithmetic mean observation (0 on nil or empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-th quantile (0..1) from the log2 buckets,
// returning the lower bound of the bucket holding that rank — a
// deliberately conservative estimate with log2 resolution.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(count-1))
	var seen uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		seen += n
		if n > 0 && seen > rank {
			return BucketLow(i)
		}
	}
	return BucketLow(HistBuckets - 1)
}
