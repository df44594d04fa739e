package harness

import (
	"math"
	"strings"
	"testing"
)

func table(pts []Point, heads ...string) string {
	var b strings.Builder
	WriteTable(&b, "title", pts, heads...)
	return b.String()
}

func TestWriteTable(t *testing.T) {
	out := table([]Point{{Size: 1, HB: 20, NB: 10}, {Size: 16384, HB: 300, NB: 200}}, "size(B)", "HB(µs)", "NB(µs)", "factor")
	for _, want := range []string{"title\n", "size(B)", "16384", "300.00", "2.00", "1.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// Every column heading picks its cell: the x fields, either side, the
// factor alone (Figure 7), and the collective sweep's note.
func TestWriteTableColumns(t *testing.T) {
	for _, c := range []struct {
		pt    Point
		heads []string
		want  string
	}{
		{Point{Skew: 400, HB: 160, NB: 12}, []string{"skew(µs)", "HB-cpu(µs)", "NB-cpu(µs)", "factor"}, "400  160.00  12.00  13.33"},
		{Point{Nodes: 4, Size: 4096, HB: 11, NB: 2}, []string{"nodes", "size(B)", "factor"}, "4  4096  5.50"},
		{Point{Collective: "allgather", Nodes: 2048, Size: 1, HB: 4, NB: 2}, []string{"collective", "nodes", "factor", ""},
			"allgather  2048  2.00  host  fallback  (result  >  eager  limit)"},
	} {
		out := table([]Point{c.pt}, c.heads...)
		if row := strings.Split(out, "\n")[2]; strings.Join(strings.Fields(row), "  ") != c.want {
			t.Errorf("%v: row %q, want %q", c.heads, row, c.want)
		}
	}
}

func TestSweepHelpers(t *testing.T) {
	s := MPISizes()
	if s[len(s)-1] != 16287 {
		t.Fatalf("MPI sizes must end at the eager limit: %v", s)
	}
}

// Sweep fills both sides of every point, in input order, for the
// multisend, multicast, MPI and skew experiments; LossRecovery measures.
func TestSweep(t *testing.T) {
	o := DefaultOptions()
	o.Iters = 6
	o.Warmup = 3
	o.SkewIters = 8
	sizes := []Point{{Nodes: 3, Size: 4}, {Nodes: 3, Size: 512}}
	if s := o.Sweep(sizes, Sides(o.MultisendHB, o.MultisendNB)); s[1].Size != 512 || s[0].Factor() <= 1 {
		t.Fatalf("multisend sweep wrong: %+v", s)
	}
	if s := o.Sweep(sizes[:1], Sides(o.MulticastHB, o.MulticastNB)); s[0].NB <= 0 || s[0].HB <= 0 {
		t.Fatalf("multicast sweep wrong: %+v", s)
	}
	mpi := func(p Point, nb bool) float64 { return o.MPIBcast(p.Nodes+1, p.Size, nb) }
	if s := o.Sweep(sizes, mpi); s[0].Factor() <= 1 || s[1].NB <= 0 {
		t.Fatalf("MPI sweep wrong: %+v", s)
	}
	skew := func(p Point, nb bool) float64 { return o.SkewCPUTime(p.Nodes, p.Size, p.Skew, nb) }
	if pts := o.Sweep([]Point{{Nodes: 4, Size: 4}, {Nodes: 4, Size: 4, Skew: 100}}, skew); pts[1].Skew != 100 || pts[1].HB <= 0 {
		t.Fatalf("skew sweep wrong: %+v", pts)
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

func plot(ticks map[int]string, curves ...Curve) string {
	var b strings.Builder
	Plot(&b, "title", "size", "factor", ticks, curves...)
	return b.String()
}

func TestPlotBasics(t *testing.T) {
	out := plot(nil, Curve{"NB", []float64{1.0, 1.5, 2.0, 1.2, 1.5}})
	for _, want := range []string{"title", "*", "2.", "NB", "[x: size] [y: factor]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// Title, 14 rows, axis, legend.
	if n := strings.Count(out, "\n"); n != 17 {
		t.Fatalf("%d lines rendered:\n%s", n, out)
	}
}

func TestPlotDistinctMarkers(t *testing.T) {
	out := plot(nil, Curve{"a", []float64{1, 2, 3}}, Curve{"b", []float64{3, 2, 1}})
	if strings.Count(out, "*") < 2 || strings.Count(out, "o") < 2 { // a marker in the chart and one in the legend
		t.Fatalf("expected two marker glyphs:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	if out := plot(nil); out != "(no data)\n" {
		t.Fatalf("empty chart rendered %q", out)
	}
}

// assertDrawn fails unless the curve's marker appears in the chart as well
// as in the legend.
func assertDrawn(t *testing.T, y ...float64) {
	t.Helper()
	if out := plot(nil, Curve{"c", y}); strings.Count(out, "*") < 2 {
		t.Errorf("%v not drawn:\n%s", y, out)
	}
}

func TestPlotFlatSeries(t *testing.T) { assertDrawn(t, 5, 5, 5) }

func TestPlotSkipsNaN(t *testing.T) { assertDrawn(t, 1, math.NaN(), 3) }

func TestPlotSinglePoint(t *testing.T) { assertDrawn(t, 7) }

func TestPlotXTicks(t *testing.T) {
	out := plot(map[int]string{0: "1B", 2: "16K"}, Curve{"s", []float64{1, 2, 3}})
	if !strings.Contains(out, "      1B") || !strings.HasSuffix(strings.Split(out, "\n")[16], "16K") {
		t.Fatalf("x ticks missing:\n%s", out)
	}
}

func TestPlotExtremesStayInFrame(t *testing.T) {
	for _, l := range strings.Split(plot(nil, Curve{"s", []float64{-100, 0, 1000}}), "\n") {
		if len(l) > 64+12 {
			t.Fatalf("row wider than frame: %q", l)
		}
	}
}
