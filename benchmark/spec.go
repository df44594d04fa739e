package main

// The benchmark's vocabulary: workload and metric names, units, directions
// and regression bounds. BENCHMARK.json at the repository root repeats this
// table for the driver; TestBenchmarkJSONMatchesRunner keeps the two equal.

// Workload names.
const (
	wlStorm   = "storm_small_512"
	wlBulk    = "bulk_clos_shard2_1024"
	wlInstall = "install_2048"
	wlLossy   = "lossy_mix_256"
	wlFigs    = "paper_figs_16"
)

type workloadDef struct {
	name string
	why  string
	// tailPct is the percentile lat_us_tail is read at: the highest of p75,
	// p90, p99 and p99.9 that, at scale 1, still has ten independent samples
	// beyond it. Destinations of one multicast share its fate (one
	// retransmission timeout delays all of them), so on the lossy workload
	// what must lie beyond is ten multicasts, not ten deliveries of one; on
	// the loss-free ones the tail is the far side of every tree and each
	// operation contributes to it. Fixed per workload, so every run and
	// every seed reads the same percentile.
	tailPct float64
}

// workloads lists every workload with the reason it exists — which layer it
// loads and which it bypasses.
var workloads = []workloadDef{
	{wlStorm, "512 hosts, one group, 200 closed-loop 1 KB multicasts on the serial engine: the event loop and per-packet NIC cost dominate, install and tree work are noise", 0.999},
	{wlBulk, "1024-host three-tier Clos on 2 shards, 4 concurrent groups of 32 KB multicasts: fragmentation, per-byte DMA and cross-shard windows instead of per-packet cost on one heap", 0.99},
	{wlInstall, "2048 hosts, time to first multicast on 4 new groups: group install and tree validation dominate, the event loop is small", 0.99},
	{wlLossy, "256 hosts at 1% link loss: 4 KB multicasts, an open-loop unicast mix and NIC barrier+allreduce, so all three reliability state machines and their timers do real work", 0.90},
	{wlFigs, "the paper's Figures 3-7 through the harness: hundreds of <=16-node clusters built and torn down, where cluster build, process goroutines, MPI and GC dominate", 0.75},
}

type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the simulator sees: the host clock (what an
// experiment costs to run) and the model clock (what the simulated
// NIC-based multicast achieves).
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"run_s", "s", false, 0.25},
	{"cpu_s", "s", false, 0.25},
	{"alloc_mb", "MB", false, 0.02},
	{"live_heap_mb", "MB", false, 0.06},
	{"virtual_ms", "ms", false, 0.15},
	{"lat_us_p50", "us", false, 0.06},
	{"lat_us_tail", "us", false, 0.10},
	{"last_rx_us_p50", "us", false, 0.15},
	{"agg_goodput_MBps", "MB/s", true, 0.15},
}

// perLayer names every metric of the traced run, layer.metric. Units: the
// counts are raw event or packet counts; _pct are percentages of the timed
// section (host clock) or of the makespan (model clock).
var perLayer = []metricDef{
	{"sim.events_fired", "count", false, 0},
	{"sim.ns_per_event", "ns", false, 0},
	{"sim.kernel_ns_per_event", "ns", false, 0},
	{"sim.kernel_share_pct", "%", false, 0},
	{"sim.pending_p50", "count", false, 0},
	{"sim.pending_max", "count", false, 0},
	{"sim.shard_windows", "count", false, 0},
	{"sim.shard_inline_windows", "count", false, 0},
	{"sim.shard_cross_events", "count", false, 0},
	{"sim.shard_barrier_wait_pct", "%", false, 0},
	{"sim.shard_busy_s", "s", false, 0},
	{"sim.shard_speedup_x", "x", true, 0},

	{"node.events", "count", false, 0},
	{"node.wall_s", "s", false, 0},
	{"node.share_pct", "%", false, 0},
	{"node.ns_per_event", "ns", false, 0},

	{"fabric.switch_events", "count", false, 0},
	{"fabric.wall_s", "s", false, 0},
	{"fabric.share_pct", "%", false, 0},
	{"fabric.injected", "count", false, 0},
	{"fabric.delivered", "count", false, 0},
	{"fabric.dropped", "count", false, 0},
	{"fabric.link_busy_pct", "%", false, 0},
	{"fabric.stall_us", "us", false, 0},
	{"fabric.pfc_pauses", "count", false, 0},
	{"fabric.isolated_ns_per_hop", "ns", false, 0},

	{"lanai.cpu_busy_pct", "%", false, 0},
	{"lanai.root_cpu_busy_pct", "%", false, 0},
	{"lanai.cpu_backlog_max_us", "us", false, 0},
	{"lanai.sdma_busy_pct", "%", false, 0},
	{"lanai.rdma_busy_pct", "%", false, 0},
	{"lanai.host_events", "count", false, 0},
	{"lanai.buf_stall_us", "us", false, 0},
	{"lanai.rx_nobuffer", "count", false, 0},

	{"gm.data_sent", "count", false, 0},
	{"gm.acks_sent", "count", false, 0},
	{"gm.retransmits", "count", false, 0},
	{"gm.timeouts", "count", false, 0},
	{"gm.duplicates", "count", false, 0},
	{"gm.useful_pct", "%", true, 0},
	{"gm.token_wait_us_p50", "us", false, 0},

	{"core.mcast_sent", "count", false, 0},
	{"core.mcast_forwarded", "count", false, 0},
	{"core.header_rewrites", "count", false, 0},
	{"core.forwards_before_full", "count", true, 0},
	{"core.acks_sent", "count", false, 0},
	{"core.retransmits", "count", false, 0},
	{"core.timeouts", "count", false, 0},
	{"core.ack_latency_us_p50", "us", false, 0},
	{"core.install_wall_s", "s", false, 0},
	{"core.install_us_per_member", "us", false, 0},
	{"core.install_virtual_us", "us", false, 0},

	{"coll.barriers_done", "count", false, 0},
	{"coll.reduces_done", "count", false, 0},
	{"coll.retransmits", "count", false, 0},
	{"coll.op_virtual_us_p50", "us", false, 0},

	{"tree.build_wall_s", "s", false, 0},
	{"tree.validate_us_per_node", "us", false, 0},
	{"tree.depth", "count", false, 0},
	{"tree.max_fanout", "count", false, 0},

	{"cluster.build_wall_s", "s", false, 0},
	{"cluster.build_us_per_node", "us", false, 0},
	{"cluster.teardown_wall_s", "s", false, 0},

	{"harness.points", "count", false, 0},
	{"harness.point_wall_ms_p50", "ms", false, 0},
	{"harness.fig3_wall_s", "s", false, 0},
	{"harness.fig5_wall_s", "s", false, 0},
	{"harness.fig6_wall_s", "s", false, 0},
	{"harness.fig7_wall_s", "s", false, 0},
	{"mpi.fig4_wall_s", "s", false, 0},
	{"harness.fig3_factor", "x", true, 0},
	{"harness.fig5_small_factor", "x", true, 0},
	{"harness.fig5_16k_factor", "x", true, 0},
	{"harness.fig4_factor", "x", true, 0},
	{"harness.paper_err_pct", "%", false, 0},

	{"runtime.gc_cycles", "count", false, 0},
	{"runtime.gc_pause_ms", "ms", false, 0},
	{"runtime.gc_cpu_pct", "%", false, 0},
	{"runtime.bytes_per_event", "B", false, 0},
	{"runtime.allocs_per_event", "count", false, 0},

	{"bench.trace_overhead_pct", "%", false, 0},
	{"bench.rep_spread_pct", "%", false, 0},
	{"bench.hook_ns_per_event", "ns", false, 0},
	{"bench.open_loop_lag_us_max", "us", false, 0},
}

// modelClock lists the end-to-end metrics measured in simulated time. They
// are bit-exact for a seed: the traced run, every repetition and every
// later commit that does not intend a model change must reproduce them.
var modelClock = []string{"virtual_ms", "lat_us_p50", "lat_us_tail", "last_rx_us_p50", "agg_goodput_MBps"}
