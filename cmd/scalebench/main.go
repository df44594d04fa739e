// Command scalebench runs the scalability study the paper lists as future
// work ("we intend to study its scalability in large scale systems"):
// NIC-based vs host-based multicast latency to the last destination, for
// systems from one crossbar up through multi-stage Clos networks of
// 16-port switches.
//
// Two axes of parallelism compose here. -parallel fans independent sweep
// points across workers (inter-run); -shards splits every single run
// across engines with the conservative PDES mode (intra-run). The product
// workers x shards is capped at GOMAXPROCS so the two never oversubscribe
// the machine. -matrix instead times one multicast storm per (nodes,
// shards) cell and prints the wall-clock speedup table — the scaling
// study for the parallel engine itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchkernel"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	iters := flag.Int("iters", 40, "timed iterations per point")
	size := flag.Int("size", 64, "message size in bytes")
	nodesFlag := flag.String("nodes", "8,16,32,64,128", "comma-separated system sizes")
	seed := flag.Int64("seed", 1, "simulation seed")
	fabricName := flag.String("fabric", "myrinet", "interconnect backend: "+harness.FabricNames())
	parallel := flag.Int("parallel", 0, "max parallel sweep points (0 = all cores, 1 = serial)")
	shards := flag.Int("shards", 0, "engines per simulation run (0 or 1 = serial engine)")
	matrix := flag.Bool("matrix", false, "print the shards x nodes multicast-storm speedup matrix and exit")
	msgs := flag.Int("msgs", 10, "multicasts per storm run in -matrix mode")
	flag.Parse()

	var nodeCounts []int
	for _, f := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "scalebench: bad node count %q\n", f)
			os.Exit(2)
		}
		nodeCounts = append(nodeCounts, n)
	}

	fc, err := harness.FabricPreset(*fabricName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
		os.Exit(2)
	}

	if *matrix {
		speedupMatrix(fc, nodeCounts, *msgs, *size)
		return
	}

	o := harness.DefaultOptions()
	o.Iters = *iters
	o.Seed = *seed
	o.Workers = *parallel
	o.Shards = *shards
	o.Fabric = fc
	fmt.Printf("Scalability: time until the last of N hosts holds a %d-byte broadcast\n", *size)
	harness.WriteScale(os.Stdout, "-- NIC-based (NB) vs host-based (HB) --",
		o.ScaleSweep(nodeCounts, *size))
}

// speedupMatrix times one full multicast storm (cluster build + group
// install + msgs broadcasts) per (nodes, shards) cell. Speedups are
// relative to the 1-shard column; they exceed 1.0 only when the shards
// have real cores to run on, so the GOMAXPROCS context prints with the
// table. Sharded cells also show the coordinator's sync accounting —
// windows executed (w), cross-shard events per window (x/w), the speedup
// the window placement allows (bound, ShardStats.SpeedupBound), and the
// average shard's barrier-wait share of window wall time (wait) — so
// conservative-sync overhead is visible without a profiler.
func speedupMatrix(fc fabric.Config, nodeCounts []int, msgs, size int) {
	shardCounts := []int{1, 2, 4, 8}
	fmt.Printf("Multicast-storm wall seconds per run (speedup vs serial), %d msgs x %d bytes, fabric %s, GOMAXPROCS=%d\n",
		msgs, size, fc.Kind, runtime.GOMAXPROCS(0))
	fmt.Printf("sharded cells: w=sync windows, x/w=cross-shard events per window, bound=speedup the windows allow, wait=mean barrier-wait share\n")
	const cell = 45
	fmt.Printf("%8s", "nodes")
	for _, s := range shardCounts {
		fmt.Printf("  %*s", cell, fmt.Sprintf("%d-shard", s))
	}
	fmt.Println()
	for _, n := range nodeCounts {
		fmt.Printf("%8d", n)
		serial := 0.0
		for _, s := range shardCounts {
			if s > n {
				fmt.Printf("  %*s", cell, "-")
				continue
			}
			best := 0.0
			var st sim.ShardStats
			for i := 0; i < 2; i++ {
				start := time.Now()
				_, runStats := benchkernel.MulticastStormStats(fc, n, s, msgs, size)
				if d := time.Since(start).Seconds(); best == 0 || d < best {
					best, st = d, runStats
				}
			}
			if s == 1 {
				serial = best
				fmt.Printf("  %*s", cell, fmt.Sprintf("%.3fs", best))
			} else {
				fmt.Printf("  %*s", cell, fmt.Sprintf("%.3fs %.2fx w=%d x/w=%.1f bound=%.2fx wait=%.0f%%",
					best, serial/best, st.Windows, st.CrossPerWindow(), st.SpeedupBound(), 100*st.BarrierWaitShare()))
			}
		}
		fmt.Println()
	}
}
