// Package harness reproduces the paper's measurement methodology: warm-up
// iterations, then timed iterations averaged into a latency; the
// designated-receiver acknowledgment, with the maximum taken over the
// receivers; and the process-skew CPU-time protocol. Every figure is a
// comparison of the host-based (HB) and NIC-based (NB) schemes, so every
// figure is one Sweep: a list of Points, the x values of the figure, and a
// function that measures one side at one point. WriteTable and Plot print
// what a sweep returns.
package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// Options control a measurement run. The paper used 20 warm-up and 10,000
// timed iterations on real hardware; the simulation is deterministic, so
// far fewer timed iterations give converged averages.
type Options struct {
	Warmup int
	Iters  int
	// SkewIters is used by the skew experiments (paper: 5,000).
	SkewIters int
	Seed      int64
	// Mut, when non-nil, adjusts the cluster configuration (fault
	// injection, buffer pools, cost ablations).
	Mut func(*cluster.Config)
	// NBTree, when non-nil, overrides the NIC-based multicast's spanning
	// tree (the tree-shape ablation); nil uses the size-specific optimal
	// tree.
	NBTree func(cfg *cluster.Config, root fabric.NodeID, members []fabric.NodeID, size int) *tree.Tree
	// Metrics, when non-nil, is wired through every cluster the harness
	// builds, so a Reporter can diff it between experiments. What is read
	// out of a shared registry is a difference between snapshots, which
	// concurrent points would mix, so a non-nil Metrics forces sweeps serial
	// regardless of Workers (see parallel.go).
	Metrics *metrics.Registry
	// Workers bounds the goroutines a sweep fans its points across:
	// 0 means GOMAXPROCS, 1 forces serial. Results are identical either
	// way — each point is an independent experiment. A Mut closure must
	// tolerate concurrent calls when Workers != 1.
	Workers int
	// Shards runs every cluster the harness builds on a conservative
	// parallel engine with that many shards (0 or 1 = classic serial).
	// Results are byte-identical to serial; only wall-clock time changes.
	// Sweeps cap their worker fan-out so Workers x Shards stays within
	// GOMAXPROCS rather than oversubscribing the machine twice.
	Shards int
	// Fabric selects the interconnect backend every cluster the harness
	// builds runs on (zero value: the classic Myrinet fabric). Use
	// FabricPreset to resolve a -fabric CLI flag.
	Fabric fabric.Config
	// AckEconomy > 1 enables the full ack-economy stack on every cluster
	// the harness builds: cumulative acks every AckEconomy packets,
	// piggybacking, and NIC tree ack aggregation. 0 or 1 keeps the
	// timeline-pinned per-packet ack default.
	AckEconomy int
}

// nbTree resolves the NIC-based multicast tree for a run.
func (o Options) nbTree(cfg *cluster.Config, root fabric.NodeID, members []fabric.NodeID, size int) *tree.Tree {
	if o.NBTree != nil {
		return o.NBTree(cfg, root, members, size)
	}
	return cfg.OptimalTree(root, members, size)
}

// DefaultOptions returns the harness defaults.
func DefaultOptions() Options {
	return Options{Warmup: 20, Iters: 100, SkewIters: 120, Seed: 1}
}

func (o Options) config(nodes int) *cluster.Config {
	cfg := cluster.DefaultConfig(nodes)
	if o.Fabric.Valid() {
		cfg.Fabric = o.Fabric
	}
	cfg.Seed = o.Seed
	cfg.Metrics = o.Metrics
	cfg.Shards = o.Shards
	cluster.WithAckEconomy(o.AckEconomy)(cfg)
	if o.Mut != nil {
		o.Mut(cfg)
	}
	return cfg
}

// build assembles a cluster of nodes on the run's configuration.
func (o Options) build(nodes int) *cluster.Cluster {
	return cluster.New(nodes, cluster.WithConfig(o.config(nodes)))
}

// Point is one host-based vs NIC-based comparison: the x a sweep ran over
// (the fields a figure varies or fixes, the rest zero) and both sides'
// measurements, in µs of latency or of host CPU time.
type Point struct {
	Collective string
	Nodes      int // system size; destinations for a multisend
	Size       int // message bytes; vector elements for a collective
	Skew       float64
	HB, NB     float64
}

// Factor reports the paper's improvement factor HB/NB at this point.
func (p Point) Factor() float64 {
	if p.NB == 0 {
		return 0
	}
	return p.HB / p.NB
}

// Sweep measures both sides at every point, host-based first, and returns
// the points with HB and NB filled in, in input order. Points run in
// parallel per Options.Workers: each is an independent experiment.
func (o Options) Sweep(pts []Point, measure func(p Point, nb bool) float64) []Point {
	return parallelMap(o.workerCount(len(pts)), pts, func(_ int, p Point) Point {
		p.HB = measure(p, false)
		p.NB = measure(p, true)
		return p
	})
}

// Sides makes a sweep's measure function of an experiment whose two sides
// are separate functions of (nodes, size), such as MulticastHB and
// MulticastNB.
func Sides(hb, nb func(nodes, size int) float64) func(Point, bool) float64 {
	return func(p Point, useNB bool) float64 {
		if useNB {
			return nb(p.Nodes, p.Size)
		}
		return hb(p.Nodes, p.Size)
	}
}

// MessageSizes is the paper's sweep: 1 byte to 16 KB by powers of two
// (Figures 3 and 5 annotate 1, 4, 16, ..., 16384).
func MessageSizes(max int) []int {
	var out []int
	for s := 1; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

// timed runs iter Warmup times, then Iters times on p's clock, and returns
// the mean timed iteration in µs.
func (o Options) timed(p *sim.Proc, iter func()) float64 {
	for i := 0; i < o.Warmup; i++ {
		iter()
	}
	t0 := p.Now()
	for i := 0; i < o.Iters; i++ {
		iter()
	}
	return (p.Now() - t0).Micros() / float64(o.Iters)
}

// worst measures once per designated receiver and returns the maximum, as
// the paper does ("the same test was repeated with different leaf nodes
// returning the acknowledgment; the maximum from all the tests was taken").
func worst(designated []fabric.NodeID, once func(fabric.NodeID) float64) float64 {
	us := make([]float64, len(designated))
	for i, d := range designated {
		us[i] = once(d)
	}
	return stats.Max(us)
}

// runToCompletion drives a measurement cluster until quiet and verifies
// every process finished — a stalled process means a protocol bug, which
// must fail loudly rather than report garbage latencies. Cluster.Run
// dispatches to the serial engine or the sharded coordinator, so every
// harness experiment runs unchanged in either mode.
func runToCompletion(c *cluster.Cluster) {
	c.Run()
	if n := c.LiveProcs(); n != 0 {
		c.Kill()
		panic(fmt.Sprintf("harness: measurement stalled with %d live processes", n))
	}
	c.Kill()
}
