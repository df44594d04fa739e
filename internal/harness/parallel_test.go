package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func detTestOptions(workers int) Options {
	o := DefaultOptions()
	o.Warmup = 1
	o.Iters = 4
	o.SkewIters = 4
	o.Workers = workers
	return o
}

// renderAllSweeps sweeps the GM, MPI, skew and scale experiments and
// renders them with the table writer the commands use, so a byte
// comparison covers every float the sweeps produce.
func renderAllSweeps(o Options) []byte {
	var buf bytes.Buffer
	sizes := []Point{{Nodes: 4, Size: 1}, {Nodes: 4, Size: 64}, {Nodes: 4, Size: 1024}}
	for _, sw := range []struct {
		pts     []Point
		measure func(Point, bool) float64
	}{
		{sizes, Sides(o.MulticastHB, o.MulticastNB)},
		{sizes, func(p Point, nb bool) float64 { return o.MPIBcast(p.Nodes, p.Size, nb) }},
		{[]Point{{Nodes: 4, Size: 4, Skew: 0}, {Nodes: 4, Size: 4, Skew: 100}},
			func(p Point, nb bool) float64 { return o.SkewCPUTime(p.Nodes, p.Size, p.Skew, nb) }},
		{[]Point{{Nodes: 4, Size: 64}, {Nodes: 8, Size: 64}},
			func(p Point, nb bool) float64 { return o.LastDelivery(p.Nodes, p.Size, nb) }},
	} {
		WriteTable(&buf, "sweep", o.Sweep(sw.pts, sw.measure), "nodes", "size(B)", "skew(µs)", "HB", "NB", "factor")
	}
	return buf.Bytes()
}

func TestParallelSweepOutputMatchesSerial(t *testing.T) {
	want := renderAllSweeps(detTestOptions(1))
	got := renderAllSweeps(detTestOptions(4))
	if !bytes.Equal(got, want) {
		t.Fatalf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

func TestParallelMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out := parallelMap(8, items, func(_, v int) int { return v * 2 })
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestParallelMapPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("panic value %v does not carry the original message", r)
		}
	}()
	parallelMap(4, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(_, v int) int {
		if v == 5 {
			panic("boom")
		}
		return v
	})
}

func TestWorkerCountForcesSerialWithSharedMetrics(t *testing.T) {
	o := Options{Workers: 8, Metrics: metrics.New()}
	if got := o.workerCount(16); got != 1 {
		t.Fatalf("workerCount with a shared registry = %d, want 1", got)
	}
	o.Metrics = nil
	if got := o.workerCount(16); got != 8 {
		t.Fatalf("workerCount = %d, want 8", got)
	}
	if got := o.workerCount(3); got != 3 {
		t.Fatalf("workerCount clamped = %d, want 3", got)
	}
}
