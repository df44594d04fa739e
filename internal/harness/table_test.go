package harness

import (
	"strings"
	"testing"
)

func sample() Series {
	return Series{
		{Size: 1, HB: 20, NB: 10},
		{Size: 1024, HB: 40, NB: 30},
		{Size: 16384, HB: 300, NB: 200},
	}
}

func TestWriteSeries(t *testing.T) {
	var b strings.Builder
	WriteSeries(&b, "title", sample())
	out := b.String()
	for _, want := range []string{"title", "size(B)", "16384", "2.00", "1.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSkewAndFig7(t *testing.T) {
	var b strings.Builder
	WriteSkew(&b, "skew", []SkewPoint{{AvgSkewUs: 0, HB: 30, NB: 15}, {AvgSkewUs: 400, HB: 160, NB: 12}})
	if !strings.Contains(b.String(), "13.33") {
		t.Fatalf("skew table missing factor:\n%s", b.String())
	}
	b.Reset()
	WriteFig7(&b, "f7", []Fig7Point{{Nodes: 4, Size: 4, Factor: 5.5}})
	if !strings.Contains(b.String(), "5.50") {
		t.Fatalf("fig7 table wrong:\n%s", b.String())
	}
	b.Reset()
	WriteScale(&b, "sc", []ScalePoint{{Nodes: 8, HB: 40, NB: 20}})
	if !strings.Contains(b.String(), "2.00") {
		t.Fatalf("scale table wrong:\n%s", b.String())
	}
}

func TestPlotHelpers(t *testing.T) {
	var b strings.Builder
	PlotFactors(&b, "factors", map[string]Series{"16 nodes": sample()})
	out := b.String()
	for _, want := range []string{"factors", "16 nodes", "1B", "16K"} {
		if !strings.Contains(out, want) {
			t.Fatalf("factor plot missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	PlotSkew(&b, "skew", []SkewPoint{{AvgSkewUs: 0, HB: 30, NB: 15}, {AvgSkewUs: 400, HB: 160, NB: 12}})
	if !strings.Contains(b.String(), "host-based") || !strings.Contains(b.String(), "NIC-based") {
		t.Fatalf("skew plot missing series:\n%s", b.String())
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{1: "1B", 512: "512B", 1024: "1K", 16384: "16K", 3000: "3000B"}
	for n, want := range cases {
		if got := sizeLabel(n); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSkewPointFactor(t *testing.T) {
	p := SkewPoint{HB: 100, NB: 25}
	if p.Factor() != 4 {
		t.Fatalf("factor %v", p.Factor())
	}
	if (SkewPoint{HB: 1}).Factor() != 0 {
		t.Fatal("zero NB factor must be 0")
	}
	if (ScalePoint{HB: 1}).Factor() != 0 {
		t.Fatal("zero NB scale factor must be 0")
	}
}

func TestSweepHelpers(t *testing.T) {
	s := MPISizes()
	if s[len(s)-1] != 16287 {
		t.Fatalf("MPI sizes must end at the eager limit: %v", s)
	}
}

// Fig3/Fig4/Fig5/Fig6/LossRecovery full-series wrappers, at tiny sizes so
// the suite stays fast.
func TestFigureSweepWrappers(t *testing.T) {
	o := DefaultOptions()
	o.Iters = 6
	o.Warmup = 3
	o.SkewIters = 8
	if s := o.Fig3(3, []int{4, 512}); len(s) != 2 || s[0].Factor() <= 1 {
		t.Fatalf("Fig3 sweep wrong: %+v", s)
	}
	if s := o.Fig5(4, []int{64}); len(s) != 1 || s[0].NB <= 0 {
		t.Fatalf("Fig5 sweep wrong: %+v", s)
	}
	if s := o.Fig4(4, []int{64, 20000}); len(s) != 2 || s[1].Size != 16287 {
		t.Fatalf("Fig4 sweep must cap at the eager limit: %+v", s)
	}
	if pts := o.Fig6(4, 4, []float64{0, 100}); len(pts) != 2 || pts[1].HB <= 0 {
		t.Fatalf("Fig6 sweep wrong: %+v", pts)
	}
	if us := o.LossRecovery(4, 512, 0.01, "nack"); us <= 0 {
		t.Fatalf("LossRecovery returned %v", us)
	}
}

func TestLossRecoveryUnknownModePanics(t *testing.T) {
	o := DefaultOptions()
	o.Iters = 2
	o.Warmup = 1
	defer func() {
		if recover() == nil {
			t.Error("unknown recovery mode accepted")
		}
	}()
	o.LossRecovery(4, 64, 0.01, "bogus")
}
