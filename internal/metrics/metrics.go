// Package metrics is the unified observability layer of the simulated
// Myrinet/GM stack. Every layer — the fabric (fabric), the NIC hardware
// (lanai), the GM firmware (gm), the multicast extension (core) and the
// collective engine (coll) — counts into counters, gauges, and histograms
// keyed by component and node, so a run can be explained the way the paper
// explains its curves: where the LANai CPU cycles went, how busy the DMA
// engines were, how many retransmissions the loss recovery paid, where
// buffer pools stalled.
//
// A layer's instruments for one node are the fields of one struct, a Block:
// Counter, Gauge and Histogram are held by value, so the layer allocates the
// block once and updates its fields directly. The names live once per block
// type, in its Each method, which a Registry calls to take a Snapshot. A
// registry is a list of (component, node, block) entries: Attach files a
// block, or — when the key already holds one, a second cluster reporting
// into a shared registry — hands back the filed one, so a key has one value.
// With no registry (nil: a NIC or fabric built outside a cluster) Attach
// files nothing and the layer keeps a block of its own. A cluster always has
// a registry — its own when the caller wires none — which costs a run
// without metrics one entry per block and one index slot per node. The few
// instruments that are not part of a layer's block (the shard coordinator's
// fold, membership, the explorer) are made by name with Registry.Counter,
// Gauge and Histogram; those return nil on a nil registry, and every method
// on a nil instrument is a no-op. Instrument updates never touch the
// simulation engine, so wiring a registry cannot change any simulated
// timestamp — a property the determinism tests pin down.
//
// Instruments are lock-free atomics: a sharded run (cluster.WithShards)
// updates one registry from several engine goroutines concurrently, and
// because every operation is commutative (sums, monotone high-water marks,
// bucket counts), final values stay deterministic no matter how shard
// execution interleaves. Attach, the by-name lookups and Snapshot take the
// registry's mutex; an update takes nothing.
package metrics

import (
	"fmt"
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

// Block is one layer's instruments for one node: a struct whose Counter,
// Gauge and Histogram fields are the instruments themselves. Each names
// them — it reports every field to v as (name, pointer to the field), in
// any order, the same names on every call.
type Block interface {
	Each(v *Visitor)
}

// Visitor is what a Block reports its instruments to. The registry makes
// one to take a snapshot of a block or to find one of its instruments by
// name; a block only calls its three methods.
type Visitor struct {
	component string
	node      int
	snap      *Snapshot // collecting values when non-nil; else looking for want
	want      string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// Counter reports one counter of the block.
func (v *Visitor) Counter(name string, c *Counter) {
	if v.snap != nil {
		v.snap.Counters = append(v.snap.Counters, CounterVal{Key: v.key(name), Value: c.Value()})
	} else if name == v.want {
		v.counter = c
	}
}

// Gauge reports one gauge of the block.
func (v *Visitor) Gauge(name string, g *Gauge) {
	if v.snap != nil {
		v.snap.Gauges = append(v.snap.Gauges, GaugeVal{Key: v.key(name), Value: g.Value(), High: g.High()})
	} else if name == v.want {
		v.gauge = g
	}
}

// Histogram reports one histogram of the block.
func (v *Visitor) Histogram(name string, h *Histogram) {
	if v.snap != nil {
		v.snap.Histograms = append(v.snap.Histograms, h.val(v.key(name)))
	} else if name == v.want {
		v.hist = h
	}
}

func (v *Visitor) key(name string) Key { return Key{v.component, v.node, name} }

// Registry holds a run's instruments: the blocks attached to it and the
// instruments made by name. The zero value is unusable; build one with New.
// A nil *Registry is the no-registry case: Attach files nothing, the
// by-name constructors return nil, Snapshot is empty.
type Registry struct {
	mu sync.Mutex
	// chunks holds every filed block's entry in filing order, n of them, in
	// fixed-size chunks so that filing never copies or moves what is already
	// filed. heads finds the entry most recently filed for a node, and
	// entry.next chains to the node's earlier ones, whatever their component:
	// a node has a block per layer and perhaps a by-name one, a handful, so
	// one map slot per node stands in for one per key.
	chunks [][]entry
	n      int
	heads  map[int]*entry
}

// entryChunk is how many entries one chunk of Registry.chunks holds.
const entryChunk = 32

type entry struct {
	component string
	node      int
	block     Block
	next      *entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{heads: make(map[int]*entry)}
}

// Ensure returns r unchanged when non-nil, else a fresh registry: a cluster
// and the runners that read their own results out of a snapshot (fault
// campaigns, membership, the explorer) use it so a caller who wires none
// still gets one.
func Ensure(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return New()
}

// at returns the i-th filed entry.
func (r *Registry) at(i int) *entry {
	return &r.chunks[i/entryChunk][i%entryChunk]
}

// Attach returns the block of type T that reports under (component, node):
// the one already filed there if any, else a new one, filed. On a nil
// registry it returns a new block and files nothing.
func Attach[T any, B interface {
	*T
	Block
}](r *Registry, component string, node int) *T {
	if r == nil {
		return new(T)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return attach[T, B](r, component, node)
}

// attach is Attach on a registry whose mutex the caller holds.
func attach[T any, B interface {
	*T
	Block
}](r *Registry, component string, node int) *T {
	for e := r.heads[node]; e != nil; e = e.next {
		if e.component == component {
			if b, ok := e.block.(B); ok {
				return b
			}
		}
	}
	b := new(T)
	if r.n%entryChunk == 0 {
		r.chunks = append(r.chunks, make([]entry, entryChunk))
	}
	e := r.at(r.n)
	r.n++
	*e = entry{component, node, B(b), r.heads[node]}
	r.heads[node] = e
	return b
}

// scope is the block of instruments made by name under one key, a handful
// each, found by scanning for the name.
type scope struct {
	counters []named[*Counter]
	gauges   []named[*Gauge]
	hists    []named[*Histogram]
}

type named[T any] struct {
	name string
	inst T
}

func (sc *scope) Each(v *Visitor) {
	for _, e := range sc.counters {
		v.Counter(e.name, e.inst)
	}
	for _, e := range sc.gauges {
		v.Gauge(e.name, e.inst)
	}
	for _, e := range sc.hists {
		v.Histogram(e.name, e.inst)
	}
}

// find looks name up in every block filed under (component, node): the
// visitor it returns holds the counter, gauge and histogram of that name,
// nil where there is none. The caller holds r.mu.
func (r *Registry) find(component string, node int, name string) Visitor {
	v := Visitor{want: name}
	for e := r.heads[node]; e != nil; e = e.next {
		if e.component == component {
			e.block.Each(&v)
		}
	}
	return v
}

// Counter returns the named counter — a field of a block filed under
// (component, node) or, failing that, one made by name, on first use — or
// nil on a nil registry.
func (r *Registry) Counter(component string, node int, name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.find(component, node, name)
	if v.counter == nil {
		v.counter = new(Counter)
		sc := attach[scope](r, component, node)
		sc.counters = append(sc.counters, named[*Counter]{name, v.counter})
	}
	return v.counter
}

// Gauge returns the named gauge, as Counter does, or nil on a nil registry.
func (r *Registry) Gauge(component string, node int, name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.find(component, node, name)
	if v.gauge == nil {
		v.gauge = new(Gauge)
		sc := attach[scope](r, component, node)
		sc.gauges = append(sc.gauges, named[*Gauge]{name, v.gauge})
	}
	return v.gauge
}

// Histogram returns the named histogram, as Counter does, or nil on a nil
// registry.
func (r *Registry) Histogram(component string, node int, name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.find(component, node, name)
	if v.hist == nil {
		v.hist = new(Histogram)
		sc := attach[scope](r, component, node)
		sc.hists = append(sc.hists, named[*Histogram]{name, v.hist})
	}
	return v.hist
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
// tell a 5 µs token wait from a 500 µs retransmission timeout. The zero
// value is an empty histogram. All methods are no-ops on a nil receiver.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Int64
	// lo and hi hold the extremes as numbers that only ever rise, so that
	// zero means "nothing yet" for both and they advance by the same CAS
	// loop, keeping the final values deterministic under concurrent
	// observers: hi is ordered(max), lo is ^ordered(min).
	lo, hi  atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// ordered maps int64 order onto uint64 order (math.MinInt64 becomes 0).
func ordered(v int64) uint64 { return uint64(v) ^ 1<<63 }

// raise lifts a to at least x.
func raise(a *atomic.Uint64, x uint64) {
	for {
		cur := a.Load()
		if x <= cur || a.CompareAndSwap(cur, x) {
			return
		}
	}
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
	raise(&h.lo, ^ordered(v))
	raise(&h.hi, ordered(v))
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
	return int64(^h.lo.Load() ^ 1<<63)
}

func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return int64(h.hi.Load() ^ 1<<63)
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
