package main

import (
	"fmt"
	"io"

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
	if !c.parse(args) {
		return 2
	}
	if *fig != 0 && *fig != 3 && *fig != 5 {
		return c.usage("unknown figure %d (want 3 or 5)", *fig)
	}
	o, rep := c.options()
	o.Iters, o.Warmup = *iters, *warmup
	sizes := harness.MessageSizes(*maxSize)
	if *fig != 5 {
		writeFigure(stdout, 3, "NIC-based multisend (NB) vs host-based multiple unicasts (HB)",
			"destinations", "dests", *plot, func(n int) harness.Series { return o.Fig3(n, sizes) }, 3, 4, 8)
		rep.Report(stdout, "figure 3")
	}
	if *fig != 3 {
		writeFigure(stdout, 5, "GM-level NIC-based multicast (NB) vs host-based multicast (HB)",
			"nodes", "nodes", *plot, func(n int) harness.Series { return o.Fig5(n, sizes) }, 4, 8, 16)
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
	if !c.parse(args) {
		return 2
	}
	o, _ := c.options()
	o.Iters, o.Warmup = *iters, *warmup
	writeFigure(stdout, 4, "MPI-level broadcast, NIC-based (NB) vs host-based (HB)",
		"nodes", "nodes", *plot, func(n int) harness.Series { return o.Fig4(n, harness.MPISizes()) }, 4, 8, 16)
	return 0
}

// writeFigure prints one latency series per count, headed "-- <n> <noun>
// --", and with plot the factor curves, labelled "<n> <abbr>".
func writeFigure(w io.Writer, fig int, title, noun, abbr string, plot bool, series func(n int) harness.Series, counts ...int) {
	fmt.Fprintf(w, "Figure %d: %s\n", fig, title)
	curves := map[string]harness.Series{}
	for _, n := range counts {
		s := series(n)
		harness.WriteSeries(w, fmt.Sprintf("-- %d %s --", n, noun), s)
		curves[fmt.Sprintf("%d %s", n, abbr)] = s
	}
	if plot {
		harness.PlotFactors(w, fmt.Sprintf("Figure %d(b): factor of improvement", fig), curves)
	}
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
	if !c.parse(args) {
		return 2
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
			pts := o.Fig6(*nodes, size, harness.SkewSweep())
			harness.WriteSkew(stdout, fmt.Sprintf("-- %d-byte messages --", size), pts)
			if *plot {
				harness.PlotSkew(stdout, fmt.Sprintf("Figure 6(a), %d-byte messages", size), pts)
			}
		}
		rep.Report(stdout, "figure 6")
	}
	if *fig != 6 {
		fmt.Fprintln(stdout, "Figure 7: improvement factor at 400µs average skew vs system size")
		harness.WriteFig7(stdout, "-- 4-byte and 4-KB messages --", o.Fig7([]int{4, 8, 12, 16}, []int{4, 4096}))
		rep.Report(stdout, "figure 7")
	}
	return 0
}
