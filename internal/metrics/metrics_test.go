package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilAndDisabledInstrumentsAreNoOps(t *testing.T) {
	for name, reg := range map[string]*Registry{"nil": nil, "disabled": Disabled()} {
		c := reg.Counter("gm", 0, "sends")
		g := reg.Gauge("lanai", 0, "inuse")
		h := reg.Histogram("core", 0, "latency_ns")
		if c != nil || g != nil || h != nil {
			t.Fatalf("%s registry handed out live instruments", name)
		}
		c.Inc()
		c.Add(5)
		c.AddInt(7)
		g.Set(3)
		g.Add(-1)
		h.Observe(42)
		if c.Value() != 0 || g.Value() != 0 || g.High() != 0 || h.Count() != 0 {
			t.Fatalf("%s instruments accumulated state", name)
		}
		if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
			t.Fatalf("%s registry produced a non-empty snapshot", name)
		}
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
	e := Ensure(nil)
	if !e.Enabled() {
		t.Fatal("Ensure(nil) returned a dead registry")
	}
	d := Disabled()
	if Ensure(d) != d {
		t.Fatal("Ensure replaced a disabled registry (explicit no-op must stick)")
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
