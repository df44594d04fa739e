package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/harness"
)

// runGM regenerates the paper's GM-level evaluation:
//
//	gm -fig 3    Figure 3 — NIC-based multisend vs host-based multiple
//	             unicasts, for 3, 4 and 8 destinations
//	gm -fig 5    Figure 5 — NIC-based multicast (optimal tree) vs
//	             host-based multicast (binomial), for 4/8/16 nodes
//
// The tables print the series the figures plot: latency per message size
// for both schemes and the factor of improvement.
func runGM(args []string, stdout, stderr io.Writer) int {
	c := newCommand("gm", stderr)
	fig, plot := c.fig("3 or 5"), c.plot()
	iters, warmup := c.iters(100), c.warmup(20)
	maxSize := c.Int("maxsize", 16384, "largest message size in the sweep")
	c.harness()
	c.fabric()
	c.ackEvery()
	c.metrics(true)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *fig != 0 && *fig != 3 && *fig != 5 {
		return c.usage("unknown figure %d (want 3 or 5)", *fig)
	}
	o, rep := c.options()
	o.Iters, o.Warmup = *iters, *warmup
	sizes := harness.MessageSizes(*maxSize)
	if *fig != 5 {
		writeFigure(stdout, o, 3, "NIC-based multisend (NB) vs host-based multiple unicasts (HB)",
			"destinations", "dests", *plot, sizes, harness.Sides(o.MultisendHB, o.MultisendNB), 3, 4, 8)
		rep.Report(stdout, "figure 3")
	}
	if *fig != 3 {
		writeFigure(stdout, o, 5, "GM-level NIC-based multicast (NB) vs host-based multicast (HB)",
			"nodes", "nodes", *plot, sizes, harness.Sides(o.MulticastHB, o.MulticastNB), 4, 8, 16)
		rep.Report(stdout, "figure 5")
	}
	return 0
}

// runMPI regenerates Figure 4: MPI-level broadcast latency of the modified
// MPICH-GM (NIC-based multicast) against stock MPICH-GM's host-based
// binomial broadcast, for 4, 8 and 16 nodes, up to the largest eager
// message of 16,287 bytes.
func runMPI(args []string, stdout, stderr io.Writer) int {
	c := newCommand("mpi", stderr)
	iters, warmup, plot := c.iters(60), c.warmup(20), c.plot()
	c.harness()
	if code, ok := c.parse(args); !ok {
		return code
	}
	o, _ := c.options()
	o.Iters, o.Warmup = *iters, *warmup
	writeFigure(stdout, o, 4, "MPI-level broadcast, NIC-based (NB) vs host-based (HB)", "nodes", "nodes", *plot,
		harness.MPISizes(), func(p harness.Point, nb bool) float64 { return o.MPIBcast(p.Nodes, p.Size, nb) }, 4, 8, 16)
	return 0
}

// writeFigure sweeps sizes with measure at each count, printing one
// latency table per count, headed "-- <n> <noun> --", and with plot the
// factor curves, labelled "<n> <abbr>".
func writeFigure(w io.Writer, o harness.Options, fig int, title, noun, abbr string, plot bool,
	sizes []int, measure func(harness.Point, bool) float64, counts ...int) {
	fmt.Fprintf(w, "Figure %d: %s\n", fig, title)
	var curves []harness.Curve
	for _, n := range counts {
		pts := make([]harness.Point, len(sizes))
		for i, s := range sizes {
			pts[i] = harness.Point{Nodes: n, Size: s}
		}
		pts = o.Sweep(pts, measure)
		harness.WriteTable(w, fmt.Sprintf("-- %d %s --", n, noun), pts, "size(B)", "HB(µs)", "NB(µs)", "factor")
		factors := make([]float64, len(pts))
		for i, p := range pts {
			factors[i] = p.Factor()
		}
		curves = append(curves, harness.Curve{Name: fmt.Sprintf("%d %s", n, abbr), Y: factors})
	}
	if !plot {
		return
	}
	slices.SortFunc(curves, func(a, b harness.Curve) int { return strings.Compare(a.Name, b.Name) })
	ticks := map[int]string{}
	if n := len(sizes); n > 0 {
		for _, i := range []int{0, n / 2, n - 1} {
			ticks[i] = sizeLabel(sizes[i])
		}
	}
	harness.Plot(w, fmt.Sprintf("Figure %d(b): factor of improvement", fig), "message size", "improvement factor HB/NB", ticks, curves...)
}

// sizeLabel abbreviates a message size for an axis: 16K, 512B.
func sizeLabel(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

// runSkew regenerates the paper's process-skew evaluation:
//
//	skew -fig 6    Figure 6 — average host CPU time of MPI_Bcast on 16
//	               nodes under 0–400 µs of average process skew, for small
//	               (2/4/8 B) and, with -large, large (2/4/8 KB) messages
//	skew -fig 7    Figure 7 — the CPU-time improvement factor at 400 µs
//	               average skew across 4/8/12/16-node systems
func runSkew(args []string, stdout, stderr io.Writer) int {
	c := newCommand("skew", stderr)
	fig := c.fig("6 or 7")
	iters, nodes, plot := c.iters(120), c.nodes(16), c.plot()
	large := c.Bool("large", false, "figure 6: also sweep 2/4/8 KB messages (technical-report companion)")
	c.harness()
	c.metrics(true)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *fig != 0 && *fig != 6 && *fig != 7 {
		return c.usage("unknown figure %d (want 6 or 7)", *fig)
	}
	o, rep := c.options()
	o.SkewIters = *iters
	if *fig != 7 {
		fmt.Fprintf(stdout, "Figure 6: avg host CPU time of MPI_Bcast under process skew, %d nodes\n", *nodes)
		sizes := []int{2, 4, 8}
		if *large {
			sizes = append(sizes, 2048, 4096, 8192)
		}
		for _, size := range sizes {
			pts := o.Sweep(skewPoints(*nodes, size), skewBcast(o))
			harness.WriteTable(stdout, fmt.Sprintf("-- %d-byte messages --", size), pts, skewColumns...)
			if *plot {
				plotSkew(stdout, fmt.Sprintf("Figure 6(a), %d-byte messages", size), pts)
			}
		}
		rep.Report(stdout, "figure 6")
	}
	if *fig != 6 {
		fmt.Fprintln(stdout, "Figure 7: improvement factor at 400µs average skew vs system size")
		harness.WriteTable(stdout, "-- 4-byte and 4-KB messages --",
			o.Sweep(fig7Points([]int{4, 8, 12, 16}, []int{4, 4096}), skewBcast(o)), "nodes", "size(B)", "factor")
		rep.Report(stdout, "figure 7")
	}
	return 0
}

// skewBcast measures one side of Figures 6 and 7 at a point.
func skewBcast(o harness.Options) func(harness.Point, bool) float64 {
	return func(p harness.Point, nb bool) float64 { return o.SkewCPUTime(p.Nodes, p.Size, p.Skew, nb) }
}

// skewColumns head a skew sweep's table: host CPU time per side.
var skewColumns = []string{"skew(µs)", "HB-cpu(µs)", "NB-cpu(µs)", "factor"}

// skewPoints is Figure 6's x axis, 0 to 400 µs of average skew, at one
// system and message size.
func skewPoints(nodes, size int) []harness.Point {
	var pts []harness.Point
	for _, skew := range harness.SkewSweep() {
		pts = append(pts, harness.Point{Nodes: nodes, Size: size, Skew: skew})
	}
	return pts
}

// fig7Points is Figure 7's grid at 400 µs of average skew, system size by
// message size.
func fig7Points(nodeCounts, sizes []int) []harness.Point {
	var pts []harness.Point
	for _, n := range nodeCounts {
		for _, s := range sizes {
			pts = append(pts, harness.Point{Nodes: n, Size: s, Skew: 400})
		}
	}
	return pts
}

// plotSkew charts a skew sweep's host CPU time, one curve per side, with
// the skew axis labelled at its ends.
func plotSkew(w io.Writer, title string, pts []harness.Point) {
	hb, nb := make([]float64, len(pts)), make([]float64, len(pts))
	ticks := map[int]string{}
	for i, p := range pts {
		hb[i], nb[i] = p.HB, p.NB
		if i == 0 || i == len(pts)-1 {
			ticks[i] = fmt.Sprintf("%.0f", p.Skew)
		}
	}
	harness.Plot(w, title, "avg skew (µs)", "host CPU µs", ticks,
		harness.Curve{Name: "host-based", Y: hb}, harness.Curve{Name: "NIC-based", Y: nb})
}
