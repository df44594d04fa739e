package harness

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/tree"
)

// fast returns low-iteration options: the simulation is deterministic, so
// shape assertions converge with few iterations.
func fast() Options {
	o := DefaultOptions()
	o.Iters = 25
	o.SkewIters = 40
	return o
}

func TestMessageSizes(t *testing.T) {
	s := MessageSizes(16384)
	if s[0] != 1 || s[len(s)-1] != 16384 || len(s) != 15 {
		t.Fatalf("unexpected sweep %v", s)
	}
}

func TestPointFactor(t *testing.T) {
	for _, c := range []struct {
		p    Point
		want float64
	}{
		{Point{Size: 1, HB: 30, NB: 15}, 2},
		{Point{}, 0},
	} {
		if got := c.p.Factor(); got != c.want {
			t.Errorf("%+v: factor %v, want %v", c.p, got, c.want)
		}
	}
}

// Skew and system-size points share Point's factor, and a point with no
// NB measurement has none.
func TestSkewPointFactor(t *testing.T) {
	for _, c := range []struct {
		p    Point
		want float64
	}{
		{Point{Skew: 400, HB: 100, NB: 25}, 4},
		{Point{Skew: 400, HB: 1}, 0},
		{Point{Nodes: 8, HB: 1}, 0},
	} {
		if got := c.p.Factor(); got != c.want {
			t.Errorf("%+v: factor %v, want %v", c.p, got, c.want)
		}
	}
}

// Figure 3 signature: NIC-based multisend beats host-based multiple
// unicasts clearly for small messages and levels off at or slightly below
// parity for large ones.
func TestFig3Signature(t *testing.T) {
	o := fast()
	small := Point{Size: 64, HB: o.MultisendHB(4, 64), NB: o.MultisendNB(4, 64)}
	if f := small.Factor(); f < 1.5 {
		t.Errorf("small-message multisend factor %.2f, want >= 1.5 (paper: up to 2.05)", f)
	}
	large := Point{Size: 16384, HB: o.MultisendHB(4, 16384), NB: o.MultisendNB(4, 16384)}
	if f := large.Factor(); f < 0.90 || f > 1.05 {
		t.Errorf("large-message multisend factor %.2f, want ~1 or slightly below", f)
	}
	if small.Factor() <= large.Factor() {
		t.Errorf("multisend improvement does not decay with size: %.2f vs %.2f",
			small.Factor(), large.Factor())
	}
}

// Figure 3 also shows improvement growing with destination count.
func TestFig3MoreDestinationsMoreImprovement(t *testing.T) {
	o := fast()
	f3 := Point{HB: o.MultisendHB(3, 32), NB: o.MultisendNB(3, 32)}.Factor()
	f8 := Point{HB: o.MultisendHB(8, 32), NB: o.MultisendNB(8, 32)}.Factor()
	if f8 <= f3 {
		t.Errorf("8-destination factor %.2f not above 3-destination %.2f", f8, f3)
	}
}

// Figure 5 signature: clear win for small messages, a dip at the single-
// packet large sizes (2-4 KB), and recovery at 16 KB through pipelining.
func TestFig5Signature(t *testing.T) {
	o := fast()
	factor := func(size int) float64 {
		return Point{HB: o.MulticastHB(16, size), NB: o.MulticastNB(16, size)}.Factor()
	}
	small := factor(128)
	dip := factor(4096)
	big := factor(16384)
	if small < 1.4 {
		t.Errorf("small-message multicast factor %.2f, want >= 1.4 (paper: 1.48)", small)
	}
	if dip >= small {
		t.Errorf("no dip at 4KB relative to small messages: small=%.2f dip=%.2f", small, dip)
	}
	// The paper's 16 KB factor (1.86) exceeds its 4 KB dip; our host-based
	// baseline pipelines DMA against the wire within each hop, so the
	// recovery is muted — but 16 KB must at least hold the dip level and
	// stay a clear NIC-based win (see EXPERIMENTS.md).
	if big < dip-0.10 {
		t.Errorf("16KB factor %.2f fell below the 4KB dip %.2f", big, dip)
	}
	if big < 1.4 {
		t.Errorf("16KB multicast factor %.2f, want >= 1.4 (paper: 1.86, via pipelining)", big)
	}
}

// Figure 5 improvement grows with system size for small messages.
func TestFig5ScalesWithSystemSize(t *testing.T) {
	o := fast()
	f4 := Point{HB: o.MulticastHB(4, 64), NB: o.MulticastNB(4, 64)}.Factor()
	f16 := Point{HB: o.MulticastHB(16, 64), NB: o.MulticastNB(16, 64)}.Factor()
	if f16 <= f4*0.95 {
		t.Errorf("16-node factor %.2f not above 4-node %.2f", f16, f4)
	}
}

// Figure 4 signature: MPI-level broadcast improves comparably to GM level.
func TestFig4Signature(t *testing.T) {
	o := fast()
	small := Point{HB: o.MPIBcast(8, 16, false), NB: o.MPIBcast(8, 16, true)}
	if f := small.Factor(); f < 1.3 {
		t.Errorf("MPI small-message factor %.2f, want >= 1.3 (paper: up to 1.78)", f)
	}
	eager := Point{HB: o.MPIBcast(8, 8192, false), NB: o.MPIBcast(8, 8192, true)}
	if f := eager.Factor(); f < 1.2 {
		t.Errorf("MPI 8KB factor %.2f, want >= 1.2 (paper: up to 2.02)", f)
	}
}

// Section 6.1: installing the multicast extension must not perturb unicast.
func TestUnicastNoRegression(t *testing.T) {
	o := fast()
	for _, size := range []int{4, 4096} {
		plain := o.UnicastOneWay(size, false)
		ext := o.UnicastOneWay(size, true)
		if plain != ext {
			t.Errorf("size %d: unicast latency changed with extension: %.3f vs %.3f",
				size, plain, ext)
		}
	}
}

// Figure 6 signature: host-based CPU time grows with skew; NIC-based stays
// flat or falls; the improvement factor grows with skew.
func TestFig6Signature(t *testing.T) {
	o := fast()
	hb0 := o.SkewCPUTime(16, 4, 0, false)
	hb400 := o.SkewCPUTime(16, 4, 400, false)
	nb0 := o.SkewCPUTime(16, 4, 0, true)
	nb400 := o.SkewCPUTime(16, 4, 400, true)
	if hb400 <= hb0 {
		t.Errorf("host-based CPU time did not grow with skew: %.1f -> %.1f", hb0, hb400)
	}
	if nb400 > nb0*1.2 {
		t.Errorf("NIC-based CPU time grew with skew: %.1f -> %.1f", nb0, nb400)
	}
	if f0, f400 := hb0/nb0, hb400/nb400; f400 <= f0 {
		t.Errorf("improvement factor did not grow with skew: %.2f -> %.2f", f0, f400)
	}
}

// Figure 7 signature: at fixed 400us skew the factor grows with system size.
func TestFig7Signature(t *testing.T) {
	o := fast()
	pts := o.Sweep([]Point{{Nodes: 4, Size: 4, Skew: 400}, {Nodes: 16, Size: 4, Skew: 400}},
		func(p Point, nb bool) float64 { return o.SkewCPUTime(p.Nodes, p.Size, p.Skew, nb) })
	if pts[1].Factor() <= pts[0].Factor() {
		t.Errorf("skew improvement does not grow with size: %d nodes %.2f vs %d nodes %.2f",
			pts[0].Nodes, pts[0].Factor(), pts[1].Nodes, pts[1].Factor())
	}
}

// Ablation: the tree shape matters — the optimal tree must beat a binomial
// tree under NIC-based multicast for small messages.
func TestAblationTreeShape(t *testing.T) {
	o := fast()
	opt := o.MulticastNB(16, 32)
	o.NBTree = func(cfg *cluster.Config, root fabric.NodeID, members []fabric.NodeID, size int) *tree.Tree {
		return tree.Binomial(root, members)
	}
	bin := o.MulticastNB(16, 32)
	if opt >= bin {
		t.Errorf("optimal tree (%.1fus) not faster than binomial (%.1fus) for small messages", opt, bin)
	}
}

// The measurement harness itself is deterministic.
func TestHarnessDeterminism(t *testing.T) {
	o := fast()
	a := o.MulticastNB(8, 256)
	b := o.MulticastNB(8, 256)
	if a != b || math.IsNaN(a) {
		t.Fatalf("non-deterministic measurement: %v vs %v", a, b)
	}
}

// Reliability under injected loss: the NIC-based multicast still completes
// and reports sane latencies with a lossy fabric.
func TestMulticastUnderLossStillMeasurable(t *testing.T) {
	o := fast()
	o.Iters = 10
	o.Warmup = 5
	clean := o.MulticastNB(8, 512)
	o.Mut = func(c *cluster.Config) { c.LossRate = 0.01; c.Seed = 3 }
	lossy := o.MulticastNB(8, 512)
	if lossy < clean {
		t.Errorf("lossy run (%.1fus) faster than clean run (%.1fus)?", lossy, clean)
	}
}

// A host-based forwarder hands the buffer it received to its unicasts and
// does not wait for them; on a lossy fabric a retransmission reads that
// buffer long after the forwarder has gone on to later messages. It may
// release a buffer only when every send it posted is acknowledged. Every
// message carries the same bytes, so an early release shows only under -race,
// where a released buffer is overwritten at once and the leaves of
// multicastHBOnce compare every delivery with the message the root sent
// (checkLeaf, which panics on a difference); a plain build checks just that
// the lossy run did retransmit.
func TestMulticastHBForwardersKeepBuffersUntilAcknowledged(t *testing.T) {
	o := fast()
	o.Iters = 30
	o.Warmup = 5
	clean := o.multicastHBOnce(16, 9000, 15)
	o.Mut = func(c *cluster.Config) { c.LossRate = 0.02; c.Seed = 5 }
	lossy := o.multicastHBOnce(16, 9000, 15)
	if lossy <= clean {
		t.Errorf("lossy run (%.1fus) no slower than the clean one (%.1fus): nothing was retransmitted", lossy, clean)
	}
}

func TestSkewSweepShape(t *testing.T) {
	s := SkewSweep()
	if s[0] != 0 || s[len(s)-1] != 400 {
		t.Fatalf("skew sweep %v does not span 0..400", s)
	}
}

// Scalability (the paper's future-work claim): the NIC-based advantage
// grows with system size, including across the Clos transition at >16
// nodes.
func TestScalabilitySignature(t *testing.T) {
	o := fast()
	pts := o.Sweep([]Point{{Nodes: 8, Size: 64}, {Nodes: 32, Size: 64}, {Nodes: 128, Size: 64}},
		func(p Point, nb bool) float64 { return o.LastDelivery(p.Nodes, p.Size, nb) })
	for i := 1; i < len(pts); i++ {
		if pts[i].Factor() <= pts[i-1].Factor() {
			t.Fatalf("factor not growing with size: %d nodes %.2f vs %d nodes %.2f",
				pts[i-1].Nodes, pts[i-1].Factor(), pts[i].Nodes, pts[i].Factor())
		}
		if pts[i].NB <= pts[i-1].NB {
			t.Fatalf("NB latency not growing with size: %v", pts)
		}
	}
	if last := pts[len(pts)-1]; last.Factor() < 3.0 {
		t.Errorf("128-node factor %.2f, want >= 3.0", last.Factor())
	}
}

// NIC-level barrier (future-work collective): faster than the host-level
// dissemination barrier at every size, with the gap growing with nodes.
func TestNICBarrierSignature(t *testing.T) {
	o := fast()
	for _, nodes := range []int{4, 16} {
		nic := o.NICBarrier(nodes)
		host := o.HostBarrier(nodes)
		if nic >= host {
			t.Errorf("%d nodes: NIC barrier %.1fus not faster than host barrier %.1fus",
				nodes, nic, host)
		}
	}
}

// Bandwidth sanity: large-message unicast goodput sits in the GM-era band
// (wire is 250 MB/s; protocol efficiency lands in the 150-250 range), and
// multicast aggregate bandwidth exceeds the unicast wire rate because the
// NICs replicate inside the fabric.
func TestBandwidthEnvelope(t *testing.T) {
	o := fast()
	uni := o.UnicastBandwidth(65536)
	if uni < 120 || uni > 250 {
		t.Errorf("unicast streaming bandwidth %.1f MB/s outside [120, 250]", uni)
	}
	agg := o.MulticastAggregateBandwidth(16, 8192)
	if agg <= uni {
		t.Errorf("multicast aggregate %.1f MB/s not above unicast %.1f MB/s", agg, uni)
	}
}
