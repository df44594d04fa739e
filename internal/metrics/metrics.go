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
// Every instrument has one writer: the goroutine of the shard whose events
// update it, as the paper's firmware keeps its state per NIC and each LANai
// works only through its own events. So Counter, Gauge and Histogram are
// plain integers, and a histogram makes its buckets on its first Observe. An
// instrument several shards would write is kept one copy per shard instead
// (the fabric's fabric-wide counters): the block holding the copies reports
// their sum to a Snapshot and tells the registry so, and a by-name lookup
// of such a name panics rather than hand out an instrument no one writes.
// The rule is checked, not trusted: an instrument two shards wrote would be
// a data race, which the sharded tests report under -race. Attach, the
// by-name lookups and Snapshot take the registry's mutex; an update takes
// nothing, so a snapshot is taken between runs, not while shards run.
package metrics

import (
	"fmt"
	"math/bits"
	"sync"
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
// any order, the same names on every call. A block that keeps one copy of
// its instruments per writer reports their sum instead, and says so with a
// method SummedCopies(), so that no by-name lookup hands the sum out.
type Block interface {
	Each(v *Visitor)
}

// summed is a Block whose instruments are kept one copy per writer and
// whose Each reports their sum, in instruments made for the visit. Its one
// method is the mark: a by-name lookup that finds a name in such a block
// panics, since what it would hand out is a sum no writer updates.
type summed interface{ SummedCopies() }

// Visitor is what a Block reports its instruments to. The registry makes
// one to take a snapshot of a block or to find one of its instruments by
// name; a block only calls its three methods.
type Visitor struct {
	component string
	node      int
	snap      *Snapshot // collecting values when non-nil; else looking for want
	want      string
	summed    bool // the block being looked through is a summed one
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// Counter reports one counter of the block.
func (v *Visitor) Counter(name string, c *Counter) {
	if v.snap != nil {
		v.snap.Counters = append(v.snap.Counters, CounterVal{Key: v.key(name), Value: c.Value()})
	} else if name == v.want {
		v.found()
		v.counter = c
	}
}

// Gauge reports one gauge of the block.
func (v *Visitor) Gauge(name string, g *Gauge) {
	if v.snap != nil {
		v.snap.Gauges = append(v.snap.Gauges, GaugeVal{Key: v.key(name), Value: g.Value(), High: g.High()})
	} else if name == v.want {
		v.found()
		v.gauge = g
	}
}

// Histogram reports one histogram of the block.
func (v *Visitor) Histogram(name string, h *Histogram) {
	if v.snap != nil {
		v.snap.Histograms = append(v.snap.Histograms, h.val(v.key(name)))
	} else if name == v.want {
		v.found()
		v.hist = h
	}
}

func (v *Visitor) key(name string) Key { return Key{v.component, v.node, name} }

// found is called when a lookup meets its name: in a summed block it
// panics.
func (v *Visitor) found() {
	if v.summed {
		panic(fmt.Sprintf("metrics: %v is a sum over its writers' copies; read it from a Snapshot", v.key(v.want)))
	}
}

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
// nil where there is none. It panics if a summed block has the name. The
// caller holds r.mu.
func (r *Registry) find(component string, node int, name string) Visitor {
	v := Visitor{component: component, node: node, want: name}
	for e := r.heads[node]; e != nil; e = e.next {
		if e.component == component {
			_, v.summed = e.block.(summed)
			e.block.Each(&v)
		}
	}
	return v
}

// Counter returns the named counter — a field of a block filed under
// (component, node) or, failing that, one made by name, on first use — or
// nil on a nil registry. It panics if a summed block reports the name.
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
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// AddInt adds n when positive (negative and zero are ignored); it exists
// so duration-like int64 quantities can be accumulated without a cast at
// every call site.
func (c *Counter) AddInt(n int64) {
	if c != nil && n > 0 {
		c.v += uint64(n)
	}
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level with a high-water mark: the highest level
// Set or Add has reached, 0 before any. Like every instrument it has one
// writer, the shard of the entity whose level it is. All methods are no-ops
// on a nil receiver.
type Gauge struct{ v, high int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.high {
		g.high = v
	}
}

// Add moves the level by d (negative allowed).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.Set(g.v + d)
	}
}

// Value reports the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// High reports the high-water mark (0 on nil).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high
}

// HistBuckets is the number of log2 histogram buckets: bucket 0 holds
// observations <= 0, bucket i (1..64) holds observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const HistBuckets = 65

// Histogram accumulates observations into log2 buckets — enough resolution
// to tell a 5 µs token wait from a 500 µs retransmission timeout. The sum
// and the extremes are held inline; the buckets cover only
// BucketOf(min)..BucketOf(max), made by the first Observe and widened when an
// observation lands outside them, so a histogram a run never observes costs
// its header alone and one that records a single value holds one bucket. The
// count is the buckets' total. The zero value is an empty histogram. All
// methods are no-ops on a nil receiver.
type Histogram struct {
	sum      int64
	min, max int64    // meaningful once buckets is non-nil
	buckets  []uint64 // buckets[i] counts bucket BucketOf(min)+i
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
	b := BucketOf(v)
	switch {
	case h.buckets == nil:
		h.min, h.max = v, v
		h.buckets = make([]uint64, 1)
	case v < h.min:
		if lo := BucketOf(h.min); b < lo {
			wider := make([]uint64, lo-b+len(h.buckets))
			copy(wider[lo-b:], h.buckets)
			h.buckets = wider
		}
		h.min = v
	case v > h.max:
		if hi := BucketOf(h.max); b > hi {
			h.buckets = append(h.buckets, make([]uint64, b-hi)...)
		}
		h.max = v
	}
	h.sum += v
	h.buckets[b-BucketOf(h.min)]++
}

// Count reports how many observations were folded in (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for _, c := range h.buckets {
		n += c
	}
	return n
}

// Sum reports the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min and Max report the extreme observations (0 on nil or empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.buckets == nil {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() int64 {
	if h == nil || h.buckets == nil {
		return 0
	}
	return h.max
}

// Mean reports the arithmetic mean observation (0 on nil or empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.buckets == nil {
		return 0
	}
	return float64(h.sum) / float64(h.Count())
}

// Quantile estimates the q-th quantile (0..1) from the log2 buckets,
// returning the lower bound of the bucket holding that rank — a
// deliberately conservative estimate with log2 resolution.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.buckets == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.Count()-1))
	lo := BucketOf(h.min)
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if n > 0 && seen > rank {
			return BucketLow(lo + i)
		}
	}
	return BucketLow(HistBuckets - 1)
}
