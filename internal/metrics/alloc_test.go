//go:build !race

package metrics

import (
	"testing"
	"unsafe"
)

// Counts, not time (the race detector allocates on its own).

// Attaching a block allocates the block and nothing per instrument: the
// registry's entry is a slot of a chunk (one allocation per entryChunk
// entries) and, for a node's first block, a slot of a map that grows by
// doubling, so over many keys the average is the block alone plus a
// fraction. Re-attaching a filed key finds it and allocates nothing.
func TestAllocAttachIsOneEntry(t *testing.T) {
	r := New()
	node := 0
	fresh := testing.AllocsPerRun(2000, func() {
		Attach[nicBlock](r, "gm", node)
		node++
	})
	if fresh > 1.5 {
		t.Errorf("attaching a new key allocates %.2f objects, want the block alone (1, plus amortized growth)", fresh)
	}
	first := Attach[nicBlock](r, "gm", 7)
	again := testing.AllocsPerRun(100, func() {
		if Attach[nicBlock](r, "gm", 7) != first {
			t.Fatal("re-attaching returned another block")
		}
	})
	if again != 0 {
		t.Errorf("re-attaching a filed key allocates %.0f objects, want 0", again)
	}
	if lone := testing.AllocsPerRun(100, func() { Attach[nicBlock](nil, "gm", 7) }); lone != 1 {
		t.Errorf("a block with no registry allocates %.0f objects, want 1", lone)
	}
}

// A histogram is a field of a layer's block on every node, so its header is
// heap on every node whether the run observes it or not: the sum, the two
// extremes and the slice of its buckets (the count is their total). The
// buckets are not in it.
func TestAllocHistogramHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Histogram{}); got != 48 {
		t.Errorf("a Histogram header is %d bytes, was 48", got)
	}
}

// A histogram makes its buckets on its first Observe, and only then: one
// never observed reads as empty from every accessor and in a snapshot, the
// first observation allocates the buckets, and no later one inside the
// buckets' range allocates.
func TestHistogramBucketsOnFirstObserve(t *testing.T) {
	r := New()
	b := Attach[nicBlock](r, "gm", 0)
	h := &b.waitNs
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("an unobserved histogram reads as non-empty")
	}
	if hv := r.Snapshot().Histograms[0]; hv.Count != 0 || hv.Buckets != nil {
		t.Fatalf("an unobserved histogram's snapshot is %+v, want empty with no buckets", hv)
	}
	// AllocsPerRun calls its function once more than asked, to warm up, so
	// every call observes a histogram of its own for the first time.
	fresh := make([]Histogram, 101)
	i := 0
	first := testing.AllocsPerRun(len(fresh)-1, func() {
		fresh[i].Observe(300)
		i++
	})
	if first != 1 {
		t.Errorf("the first Observe allocates %.0f objects, want 1 (the buckets)", first)
	}
	h.Observe(300)
	if later := testing.AllocsPerRun(100, func() { h.Observe(-4) }); later != 0 {
		t.Errorf("a later Observe allocates %.0f objects, want 0", later)
	}
	if h.Count() != 102 || h.Min() != -4 || h.Max() != 300 || len(r.Snapshot().Histograms[0].Buckets) != 2 {
		t.Errorf("after 102 observations: count %d, min %d, max %d", h.Count(), h.Min(), h.Max())
	}
}

// The buckets span the observed range and no more: a histogram that records
// one value, however often, holds one 8-byte bucket (the 65 of a fixed array
// took a 576-byte size class), and one widened at both ends holds exactly
// BucketOf(min)..BucketOf(max).
func TestAllocHistogramBucketsSpanTheRange(t *testing.T) {
	var h Histogram
	for range 1000 {
		h.Observe(4096)
	}
	if len(h.buckets) != 1 || cap(h.buckets) != 1 {
		t.Errorf("1000 observations of one value hold %d buckets (cap %d), want 1", len(h.buckets), cap(h.buckets))
	}
	h.Observe(300)   // bucket 9, below 13
	h.Observe(70000) // bucket 17, above 13
	if want := BucketOf(70000) - BucketOf(300) + 1; len(h.buckets) != want {
		t.Errorf("observations in buckets 9..17 hold %d buckets, want %d", len(h.buckets), want)
	}
	if h.Count() != 1002 || h.Quantile(0) != 256 || h.Quantile(0.5) != 4096 || h.Quantile(1) != 65536 {
		t.Errorf("count %d, p0 %d, p50 %d, p100 %d; want 1002, 256, 4096, 65536",
			h.Count(), h.Quantile(0), h.Quantile(0.5), h.Quantile(1))
	}
}
