package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/benchkernel"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/sim"
)

// runScale runs the scalability study the paper lists as future work:
// NIC-based vs host-based latency to the last destination, from one
// crossbar up through multi-stage Clos networks of 16-port switches.
//
// -parallel fans independent sweep points across workers; -shards splits
// every single run across engines (conservative PDES). -matrix instead
// times one multicast storm per (nodes, shards) cell and prints the
// wall-clock speedup table, the scaling study of the parallel engine.
func runScale(args []string, stdout, stderr io.Writer) int {
	c := newCommand("scale", stderr)
	iters, size, nodeList := c.iters(40), c.size(64), c.nodeList("8,16,32,64,128")
	shards := c.shards(0)
	matrix := c.Bool("matrix", false, "print the shards x nodes multicast-storm speedup matrix and exit")
	msgs := c.msgs(10)
	c.harness()
	c.fabric()
	if !c.parse(args) {
		return 2
	}
	nodes, err := parseInts(*nodeList, 2, "node count")
	if err != nil {
		return c.usage("%v", err)
	}
	o, _ := c.options()
	if *matrix {
		speedupMatrix(stdout, o.Fabric, nodes, *msgs, *size)
		return 0
	}
	o.Iters, o.Shards = *iters, *shards
	fmt.Fprintf(stdout, "Scalability: time until the last of N hosts holds a %d-byte broadcast\n", *size)
	harness.WriteScale(stdout, "-- NIC-based (NB) vs host-based (HB) --", o.ScaleSweep(nodes, *size))
	return 0
}

// speedupMatrix times one full multicast storm (cluster build + group
// install + msgs broadcasts) per (nodes, shards) cell, best of two.
// Speedups are relative to the 1-shard column; they exceed 1.0 only when
// the shards have real cores to run on, so GOMAXPROCS prints with the
// table. Sharded cells also show the coordinator's sync accounting:
// windows executed (w), cross-shard events per window (x/w), the speedup
// the window placement allows (bound, ShardStats.SpeedupBound), and the
// average shard's barrier-wait share of window wall time (wait).
func speedupMatrix(w io.Writer, fc fabric.Config, nodeCounts []int, msgs, size int) {
	shardCounts := []int{1, 2, 4, 8}
	fmt.Fprintf(w, "Multicast-storm wall seconds per run (speedup vs serial), %d msgs x %d bytes, fabric %s, GOMAXPROCS=%d\n",
		msgs, size, fc.Kind, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "sharded cells: w=sync windows, x/w=cross-shard events per window, bound=speedup the windows allow, wait=mean barrier-wait share\n")
	const cell = 45
	fmt.Fprintf(w, "%8s", "nodes")
	for _, s := range shardCounts {
		fmt.Fprintf(w, "  %*s", cell, fmt.Sprintf("%d-shard", s))
	}
	fmt.Fprintln(w)
	for _, n := range nodeCounts {
		fmt.Fprintf(w, "%8d", n)
		serial := 0.0
		for _, s := range shardCounts {
			if s > n {
				fmt.Fprintf(w, "  %*s", cell, "-")
				continue
			}
			best := 0.0
			var st sim.ShardStats
			for range 2 {
				start := time.Now()
				_, runStats := benchkernel.MulticastStormStats(fc, n, s, msgs, size)
				if d := time.Since(start).Seconds(); best == 0 || d < best {
					best, st = d, runStats
				}
			}
			if s == 1 {
				serial = best
				fmt.Fprintf(w, "  %*s", cell, fmt.Sprintf("%.3fs", best))
			} else {
				fmt.Fprintf(w, "  %*s", cell, fmt.Sprintf("%.3fs %.2fx w=%d x/w=%.1f bound=%.2fx wait=%.0f%%",
					best, serial/best, st.Windows, st.CrossPerWindow(), st.SpeedupBound(), 100*st.BarrierWaitShare()))
			}
		}
		fmt.Fprintln(w)
	}
}

// runColl measures the NIC-resident collective engine against the
// host-based algorithms at scale: MPI_Barrier, MPI_Allreduce and
// MPI_Allgather latency at 512, 1024 and 2048 hosts, on either fabric,
// with the sharded engine carrying the big runs. -skew N instead prints
// the barrier skew-tolerance figure at N hosts: host vs NIC barrier
// latency under 0–400 µs of average process skew.
//
// Both columns ride the full MPI layer, so the comparison includes every
// host-side cost. Allgather results past the eager limit (8·N·veclen >
// 16287 bytes) cannot ride the NIC path's preposted token pool; those rows
// are annotated as host fallback.
func runColl(args []string, stdout, stderr io.Writer) int {
	c := newCommand("coll", stderr)
	nodeList := c.nodeList("")
	c.Lookup("nodes").Usage += " (default 512,1024,2048)"
	collList := c.String("collectives", strings.Join(harness.CollNames, ","), "comma-separated collectives to measure")
	veclen, warmup, iters := c.veclen(1), c.warmup(2), c.iters(10)
	skewNodes := c.Int("skew", 0, "run the barrier skew-tolerance figure at this system size instead")
	skewIters := c.Int("skew-iters", 40, "timed barriers per skew point (-skew only)")
	shards, short, plot := c.shards(4), c.short(), c.plot()
	c.harness()
	c.fabric()
	if !c.parse(args) {
		return 2
	}
	o, _ := c.options()
	o.Warmup, o.Iters, o.SkewIters, o.Shards = *warmup, *iters, *skewIters, *shards
	nodes := harness.CollScaleNodeCounts()
	if *nodeList != "" {
		var err error
		if nodes, err = parseInts(*nodeList, 2, "system size"); err != nil {
			return c.usage("%v", err)
		}
	}
	if *short {
		nodes = []int{64, 128}
		o.Warmup, o.Iters, o.SkewIters = 1, 3, 6
	}

	if n := *skewNodes; n > 0 {
		if *short && n > 128 {
			n = 64
		}
		pts := o.BarrierSkewSweep(n, harness.SkewSweep())
		harness.WriteSkew(stdout, fmt.Sprintf("Barrier skew tolerance: %d hosts, fabric %s, %d iters, seed %d",
			n, o.Fabric.Kind, o.SkewIters, o.Seed), pts)
		if *plot {
			fmt.Fprintln(stdout)
			harness.PlotSkew(stdout, "avg time inside MPI_Barrier under process skew", pts)
		}
		return 0
	}

	var colls []string
	for _, f := range strings.Split(*collList, ",") {
		name := strings.TrimSpace(f)
		if !slices.Contains(harness.CollNames, name) {
			return c.usage("unknown collective %q (have %s)", name, strings.Join(harness.CollNames, ", "))
		}
		colls = append(colls, name)
	}
	harness.WriteCollScale(stdout, fmt.Sprintf("Collective latency: host-based (HB) vs NIC-resident engine (NB), veclen %d, fabric %s, %d iters, seed %d",
		*veclen, o.Fabric.Kind, o.Iters, o.Seed), o.CollScaleSweep(colls, nodes, *veclen))
	return 0
}
