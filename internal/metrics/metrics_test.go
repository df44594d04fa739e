package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A nil registry is "off": the by-name constructors hand out nil
// instruments, and a nil instrument is a no-op.
func TestNilAndDisabledInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("gm", 0, "sends")
	g := reg.Gauge("lanai", 0, "inuse")
	h := reg.Histogram("core", 0, "latency_ns")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Inc()
	c.Add(5)
	c.AddInt(7)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry produced a non-empty snapshot")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("gm", 1, "sends")
	c.Inc()
	c.Add(2)
	c.AddInt(3)
	c.AddInt(-5) // ignored: counters are monotone
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
	if again := r.Counter("gm", 1, "sends"); again != c {
		t.Fatal("same key returned a different counter")
	}
	g := r.Gauge("lanai", 1, "inuse")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.High() != 5 {
		t.Fatalf("gauge = %d high %d, want 1 high 5", g.Value(), g.High())
	}
}

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-7, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3},
		{8, 4}, {1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.bucket {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Bucket lower bounds invert BucketOf: BucketOf(BucketLow(i)) == i.
	// (Bucket 64's lower bound overflows int64, so positive observations
	// never reach it; stop at 63.)
	for i := 1; i < HistBuckets-1; i++ {
		if got := BucketOf(BucketLow(i)); got != i {
			t.Errorf("BucketOf(BucketLow(%d)) = %d", i, got)
		}
	}

	h := New().Histogram("core", 0, "lat_ns")
	for _, v := range []int64{1, 2, 3, 1000, 1000, 4096} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 6102 {
		t.Fatalf("count=%d sum=%d, want 6/6102", h.Count(), h.Sum())
	}
	if h.Min() != 1 || h.Max() != 4096 {
		t.Fatalf("min=%d max=%d, want 1/4096", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 1016 || m > 1018 {
		t.Fatalf("mean = %f", m)
	}
	// Median rank (floor(0.5*5) = 2, the third-smallest value, 3) falls in
	// the [2,4) bucket, whose lower bound is 2.
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %d, want 2", q)
	}
	if q := h.Quantile(1); q != 4096 {
		t.Fatalf("p100 = %d, want 4096", q)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := New()
	c := r.Counter("gm", 0, "sends")
	h := r.Histogram("gm", 0, "wait_ns")
	c.Add(10)
	h.Observe(100)
	before := r.Snapshot()

	c.Add(5)
	h.Observe(200)
	h.Observe(300)
	r.Counter("core", 2, "forwards").Add(7) // appears only after the baseline
	d := r.Snapshot().Diff(before)

	if got := d.Counter("gm", 0, "sends"); got != 5 {
		t.Fatalf("diffed counter = %d, want 5", got)
	}
	if got := d.Counter("core", 2, "forwards"); got != 7 {
		t.Fatalf("new counter diff = %d, want 7", got)
	}
	var hv HistVal
	for _, x := range d.Histograms {
		if x.Name == "wait_ns" {
			hv = x
		}
	}
	if hv.Count != 2 || hv.Sum != 500 {
		t.Fatalf("diffed histogram count=%d sum=%d, want 2/500", hv.Count, hv.Sum)
	}
}

func TestSnapshotAggregationHelpers(t *testing.T) {
	r := New()
	r.Counter("gm", 0, "retransmits").Add(3)
	r.Counter("gm", 1, "retransmits").Add(4)
	r.Histogram("core", 0, "fanout").Observe(2)
	r.Histogram("core", 1, "fanout").Observe(8)
	s := r.Snapshot()
	if sum := s.CounterSum("gm", "retransmits"); sum != 7 {
		t.Fatalf("CounterSum = %d, want 7", sum)
	}
	m := s.HistMerged("core", "fanout")
	if m.Count != 2 || m.Min != 2 || m.Max != 8 {
		t.Fatalf("merged hist = %+v", m)
	}
	comps := s.Components()
	if len(comps) != 2 || comps[0] != "core" || comps[1] != "gm" {
		t.Fatalf("components = %v", comps)
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := New()
	r.Counter("lanai", 0, "cpu_busy_ns").Add(1500)
	r.Gauge("lanai", 0, "sendbuf_inuse").Add(9)
	r.Histogram("gm", 0, "token_wait_ns").Observe(2_000_000)
	s := r.Snapshot()

	var tbl bytes.Buffer
	s.WriteTable(&tbl)
	for _, want := range []string{"[lanai]", "cpu_busy_ns", "1.50µs", "high-water 9", "token_wait_ns", "2.000ms"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Counters[0].Value != 1500 || back.Counters[0].Component != "lanai" {
		t.Fatalf("round-tripped counter = %+v", back.Counters[0])
	}
}

func TestEnsure(t *testing.T) {
	r := New()
	if Ensure(r) != r {
		t.Fatal("Ensure replaced a live registry")
	}
	if Ensure(nil) == nil {
		t.Fatal("Ensure(nil) returned no registry")
	}
}

// The registry files instruments per (component, node); a snapshot is
// ordered by (component, node, name) all the same, whatever order the
// instruments were registered in — node by node as a cluster build does,
// or interleaved so consecutive lookups never share a scope — and its JSON
// and table are byte-identical between the two.
func TestSnapshotOrderIgnoresRegistrationOrder(t *testing.T) {
	keys := []Key{
		{"core", 0, "acks_sent"}, {"core", 0, "mcast_sent"}, {"core", 1, "acks_sent"}, {"core", 1, "mcast_sent"},
		{"fabric", NodeFabric, "delivered"}, {"fabric", 0, "delivered"},
		{"gm", 0, "data_sent"}, {"gm", 0, "retransmits"}, {"gm", 1, "data_sent"}, {"gm", 10, "data_sent"},
	}
	fill := func(order []int) (*Registry, Snapshot) {
		r := New()
		for _, i := range order {
			k := keys[i]
			r.Counter(k.Component, k.Node, k.Name).Add(uint64(i + 1))
			r.Gauge(k.Component, k.Node, k.Name).Set(int64(i))
			r.Histogram(k.Component, k.Node, k.Name).Observe(int64(100 * i))
		}
		return r, r.Snapshot()
	}
	r, grouped := fill([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	_, scattered := fill([]int{9, 2, 6, 4, 0, 8, 3, 7, 5, 1})
	for i, k := range keys {
		if grouped.Counters[i].Key != k || grouped.Gauges[i].Key != k || grouped.Histograms[i].Key != k {
			t.Fatalf("snapshot entry %d is %v / %v / %v, want %v",
				i, grouped.Counters[i].Key, grouped.Gauges[i].Key, grouped.Histograms[i].Key, k)
		}
		if got := grouped.Counters[i].Value; got != uint64(i+1) {
			t.Errorf("%v = %d, want %d", k, got, i+1)
		}
		if r.Counter(k.Component, k.Node, k.Name).Value() != uint64(i+1) {
			t.Errorf("second lookup of %v returned another counter", k)
		}
	}
	render := func(s Snapshot) string {
		var b bytes.Buffer
		if err := s.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		s.WriteTable(&b)
		return b.String()
	}
	if a, b := render(grouped), render(scattered); a != b {
		t.Errorf("output depends on registration order:\n%s\nvs\n%s", a, b)
	}
}

// nicBlock is a layer's block in miniature: instruments by value, named in
// Each.
type nicBlock struct {
	sends  Counter
	inuse  Gauge
	waitNs Histogram
}

func (b *nicBlock) Each(v *Visitor) {
	v.Counter("sends", &b.sends)
	v.Gauge("inuse", &b.inuse)
	v.Histogram("wait_ns", &b.waitNs)
}

// swBlock shares nicBlock's key space the way a fabric switch shares a
// host's number.
type swBlock struct{ stalls Counter }

func (b *swBlock) Each(v *Visitor) { v.Counter("stalls", &b.stalls) }

func TestAttachFilesOneBlockPerKeyAndType(t *testing.T) {
	r := New()
	a := Attach[nicBlock](r, "gm", 3)
	a.sends.Add(2)
	a.inuse.Set(4)
	a.waitNs.Observe(100)
	// A second cluster on the same registry reports into the same block.
	if b := Attach[nicBlock](r, "gm", 3); b != a {
		t.Fatal("re-attaching a filed key made a second block")
	}
	if Attach[nicBlock](r, "gm", 4) == a || Attach[nicBlock](r, "core", 3) == a {
		t.Fatal("another key returned the same block")
	}
	sw := Attach[swBlock](r, "gm", 3)
	sw.stalls.Inc()

	// By name, a filed field is found, not shadowed by a new instrument.
	if r.Counter("gm", 3, "sends") != &a.sends || r.Gauge("gm", 3, "inuse") != &a.inuse ||
		r.Histogram("gm", 3, "wait_ns") != &a.waitNs || r.Counter("gm", 3, "stalls") != &sw.stalls {
		t.Fatal("by-name lookup missed a block's field")
	}
	// A node's blocks are one chain; a lookup stays within its component.
	if r.Counter("core", 3, "sends") == &a.sends {
		t.Fatal("by-name lookup under core[3] returned gm[3]'s field")
	}
	extra := r.Counter("gm", 3, "extra")
	extra.Add(9)
	if r.Counter("gm", 3, "extra") != extra {
		t.Fatal("second by-name lookup made another counter")
	}
	s := r.Snapshot()
	for name, want := range map[string]uint64{"sends": 2, "stalls": 1, "extra": 9} {
		if got := s.Counter("gm", 3, name); got != want {
			t.Errorf("gm[3].%s = %d, want %d", name, got, want)
		}
	}
	if len(s.Counters) != 5 || len(s.Gauges) != 3 || len(s.Histograms) != 3 {
		t.Errorf("snapshot has %d counters, %d gauges, %d histograms; want 5, 3, 3",
			len(s.Counters), len(s.Gauges), len(s.Histograms))
	}

	// No registry: a block all the same, filed nowhere.
	lone := Attach[nicBlock](nil, "gm", 3)
	lone.sends.Inc()
	if lone == a || lone.sends.Value() != 1 {
		t.Fatal("a nil registry did not hand out a private working block")
	}
}

// Entries are stored in chunks: filing past a chunk's end moves nothing, and
// a Snapshot still sees every block.
func TestRegistryFilesPastOneChunk(t *testing.T) {
	r := New()
	const n = 3*entryChunk + 1
	blocks := make([]*swBlock, n)
	for i := range blocks {
		blocks[i] = Attach[swBlock](r, "fabric", i)
		blocks[i].stalls.Add(uint64(i))
	}
	s := r.Snapshot()
	if len(s.Counters) != n {
		t.Fatalf("snapshot has %d counters, want %d", len(s.Counters), n)
	}
	for i, b := range blocks {
		if Attach[swBlock](r, "fabric", i) != b || s.Counter("fabric", i, "stalls") != uint64(i) {
			t.Fatalf("block %d was lost or moved when a later chunk was added", i)
		}
	}
}

// A histogram that is a struct field starts from its zero value: empty, and
// right from the first observation on, whatever its sign.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram is not empty")
	}
	h.Observe(700)
	if h.Min() != 700 || h.Max() != 700 {
		t.Fatalf("after one observation min=%d max=%d, want 700/700", h.Min(), h.Max())
	}
	h.Observe(-5)
	h.Observe(9000)
	if h.Min() != -5 || h.Max() != 9000 || h.Count() != 3 || h.Sum() != 9695 {
		t.Fatalf("min=%d max=%d count=%d sum=%d", h.Min(), h.Max(), h.Count(), h.Sum())
	}
	var neg Histogram
	neg.Observe(-8)
	neg.Observe(-3)
	if neg.Min() != -8 || neg.Max() != -3 {
		t.Fatalf("all-negative histogram min=%d max=%d, want -8/-3", neg.Min(), neg.Max())
	}
}

// perWriter is a summed block in miniature: one copy of its counter per
// writer, reported as their sum.
type perWriter struct{ copies []*Counter }

func (b *perWriter) SummedCopies() {}

func (b *perWriter) Each(v *Visitor) {
	var sum Counter
	for _, c := range b.copies {
		sum.Add(c.Value())
	}
	v.Counter("sent", &sum)
}

// A snapshot reports a summed block's sum; a by-name lookup of its name
// panics rather than hand out the sum, which no writer updates, while other
// names under the same key are found or made as usual.
func TestByNameLookupRefusesSummedBlock(t *testing.T) {
	r := New()
	b := Attach[perWriter](r, "net", NodeFabric)
	b.copies = []*Counter{new(Counter), new(Counter)}
	b.copies[0].Add(2)
	b.copies[1].Add(3)
	if got := r.Snapshot().Counter("net", NodeFabric, "sent"); got != 5 {
		t.Fatalf("snapshot of a summed counter = %d, want 5", got)
	}
	if c := r.Counter("net", NodeFabric, "other"); c == nil || r.Counter("net", NodeFabric, "other") != c {
		t.Fatal("a by-name counter beside a summed block was not made once")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "net.sent is a sum") {
			t.Fatalf("looking up a summed counter by name: recovered %q, want a panic naming net.sent", msg)
		}
	}()
	r.Counter("net", NodeFabric, "sent")
}
