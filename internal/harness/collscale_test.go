package harness

import (
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
	f16 := CollPoint{HB: o.CollLatency("barrier", 16, 1, false), NB: o.CollLatency("barrier", 16, 1, true)}.Factor()
	f64 := CollPoint{HB: o.CollLatency("barrier", 64, 1, false), NB: o.CollLatency("barrier", 64, 1, true)}.Factor()
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

// CollScaleSweep covers every requested (collective, size) point with
// positive latencies, and flags exactly the allgather points whose flat
// result exceeds the eager ceiling.
func TestCollScaleSweepShape(t *testing.T) {
	o := collFast()
	o.Iters = 3
	pts := o.CollScaleSweep(CollNames, []int{8, 16}, 2)
	if len(pts) != len(CollNames)*2 {
		t.Fatalf("got %d points, want %d", len(pts), len(CollNames)*2)
	}
	for _, p := range pts {
		if p.HB <= 0 || p.NB <= 0 {
			t.Errorf("%s @ %d: nonpositive latency HB=%.2f NB=%.2f", p.Collective, p.Nodes, p.HB, p.NB)
		}
		if p.NBFallback {
			t.Errorf("%s @ %d flagged as fallback below the eager ceiling", p.Collective, p.Nodes)
		}
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

// Barrier skew-tolerance signature: time inside the barrier grows with
// skew for both variants (the last arrival gates everyone), the NIC
// variant stays ahead, and the runs are deterministic.
func TestBarrierSkewSignature(t *testing.T) {
	o := collFast()
	pts := o.BarrierSkewSweep(16, []float64{0, 200})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.NB >= p.HB {
			t.Errorf("skew %.0f: NIC barrier %.1fus not ahead of host %.1fus", p.AvgSkewUs, p.NB, p.HB)
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
