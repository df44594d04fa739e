package harness

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/mpi"
)

func collFast() Options {
	o := DefaultOptions()
	o.Warmup = 2
	o.Iters = 8
	o.SkewIters = 12
	return o
}

// The NIC-resident barrier's advantage over host-based dissemination
// grows with system size — the engine's headline scaling signature.
func TestCollBarrierScalingSignature(t *testing.T) {
	o := collFast()
	f16 := Point{HB: o.CollLatency("barrier", 16, 1, false), NB: o.CollLatency("barrier", 16, 1, true)}.Factor()
	f64 := Point{HB: o.CollLatency("barrier", 64, 1, false), NB: o.CollLatency("barrier", 64, 1, true)}.Factor()
	if f16 < 1.5 {
		t.Errorf("16-node barrier factor %.2f, want >= 1.5", f16)
	}
	if f64 <= f16 {
		t.Errorf("barrier factor not growing with size: 16 nodes %.2f vs 64 nodes %.2f", f16, f64)
	}
}

// The NIC-resident barrier and allreduce at 64 Myrinet hosts (warmup 2,
// iters 10, seed 1): virtual time per operation, pinned exactly — any
// difference means a collective's timeline moved.
func TestCollLatencyPins(t *testing.T) {
	o := DefaultOptions()
	o.Warmup = 2
	o.Iters = 10
	o.Seed = 1
	var lines []string
	for _, coll := range []string{"barrier", "allreduce"} {
		us := o.CollLatency(coll, 64, 1, true)
		lines = append(lines, coll+" "+strconv.FormatFloat(us, 'g', -1, 64)+" us")
	}
	golden.Check(t, "TestCollLatencyPins", "nic-64hosts-1word", golden.Capture{Lines: lines})
}

// A sweep of CollLatency covers every requested (collective, size) point
// with positive latencies, and its table notes exactly the allgather points
// whose flat result exceeds the eager ceiling.
func TestCollScaleSweepShape(t *testing.T) {
	o := collFast()
	o.Iters = 3
	var pts []Point
	for _, name := range CollNames {
		for _, n := range []int{8, 16} {
			pts = append(pts, Point{Collective: name, Nodes: n, Size: 2})
		}
	}
	pts = o.Sweep(pts, func(p Point, nb bool) float64 { return o.CollLatency(p.Collective, p.Nodes, p.Size, nb) })
	for _, p := range pts {
		if p.HB <= 0 || p.NB <= 0 {
			t.Errorf("%s @ %d: nonpositive latency HB=%.2f NB=%.2f", p.Collective, p.Nodes, p.HB, p.NB)
		}
	}
	pts = append(pts, Point{Collective: "allgather", Nodes: 2048, Size: 1})
	var b strings.Builder
	WriteTable(&b, "coll", pts, "collective", "nodes", "")
	if n := strings.Count(b.String(), "host fallback"); n != 1 || !strings.Contains(b.String(), "2048  host fallback") {
		t.Errorf("want only the 2048-host allgather noted as host fallback:\n%s", b.String())
	}
}

func TestAllgatherNICEligible(t *testing.T) {
	if !AllgatherNICEligible(16, 1) {
		t.Error("16-node veclen-1 allgather should ride the NIC path")
	}
	// 8*2048*1 = 16384 > EagerMax: the 2048-host row is the documented
	// host-fallback point.
	if AllgatherNICEligible(2048, 1) {
		t.Errorf("2048-node veclen-1 allgather (16384 B > EagerMax %d) must not claim the NIC path", mpi.EagerMax)
	}
}

// Unknown collective names must fail loudly, not measure garbage.
func TestCollLatencyUnknownPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown collective did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "unknown collective") {
			panic(r)
		}
	}()
	collFast().CollLatency("alltoall", 4, 1, false)
}

// A size the MPI layer would refuse fails the same way, before a cluster
// is built: an allreduce vector past EagerMax, and an allgather whose
// largest host exchange (mpi.BruckLargestExchange) is past it.
func TestCollLatencyExceedsEagerPanics(t *testing.T) {
	for _, c := range []struct {
		collective    string
		nodes, veclen int
	}{{"allreduce", 4, mpi.EagerMax/8 + 1}, {"allgather", 4096, 1}} {
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			collFast().CollLatency(c.collective, c.nodes, c.veclen, false)
			return nil
		}()
		if !errors.Is(err, mpi.ErrExceedsEager) {
			t.Errorf("%s on %d nodes, veclen %d: got %v, want ErrExceedsEager", c.collective, c.nodes, c.veclen, err)
		}
	}
	for _, c := range []struct {
		nodes, veclen int
		fits          bool
	}{
		{2048, 1, true},
		{4, 1017, true},  // 2 vectors, 16 272 bytes
		{4, 1018, false}, // 16 288 bytes
		{5, 700, true},   // 2 vectors, 11 200 bytes: step 4 sends 1
		{7, 700, false},  // 3 vectors, 16 800 bytes
	} {
		if err := CollFits("allgather", c.nodes, c.veclen); (err == nil) != c.fits {
			t.Errorf("allgather on %d nodes, veclen %d: CollFits = %v, want fits %v", c.nodes, c.veclen, err, c.fits)
		}
	}
}

// Barrier skew-tolerance signature: time inside the barrier grows with
// skew for both variants (the last arrival gates everyone), the NIC
// variant stays ahead, and the runs are deterministic.
func TestBarrierSkewSignature(t *testing.T) {
	o := collFast()
	pts := o.Sweep([]Point{{Nodes: 16, Skew: 0}, {Nodes: 16, Skew: 200}},
		func(p Point, nb bool) float64 { return o.BarrierSkewCPUTime(p.Nodes, p.Skew, nb) })
	for _, p := range pts {
		if p.NB >= p.HB {
			t.Errorf("skew %.0f: NIC barrier %.1fus not ahead of host %.1fus", p.Skew, p.NB, p.HB)
		}
	}
	if pts[1].HB <= pts[0].HB || pts[1].NB <= pts[0].NB {
		t.Errorf("barrier time did not grow with skew: %+v", pts)
	}
	again := o.BarrierSkewCPUTime(16, 200, true)
	if again != pts[1].NB {
		t.Fatalf("non-deterministic skew measurement: %.3f vs %.3f", again, pts[1].NB)
	}
}
