// Command chaosbench runs the deterministic fault-injection campaigns
// over the NIC-based multicast stack, one workload per invocation:
//
//	chaosbench                     the multicast stream: every library scenario at 4, 8 and 16 nodes
//	chaosbench -workload coll      rounds of NIC barrier/allreduce/allgather under burst
//	                               loss, dup storms, ack loss and root outages
//	chaosbench -workload member    the stream under membership churn: every scenario
//	                               at 6/8/12 nodes x 4/8/12 join/leave transitions
//	chaosbench -list               print the workload's scenario library and exit
//	chaosbench -scenario burst-loss -nodes 8
//	chaosbench -short              CI smoke: small clusters, few messages
//
// Each scenario runs a clean baseline and a faulted run on identically
// seeded clusters, asserts the recovery invariants (every receiver got
// every byte exactly once in order — under churn: every payload of epoch
// E reached exactly E's members — all buffers and tokens returned, no
// leaked timers, balanced fabric accounting) and reports the recovery
// latency the fault cost. Two runs with the same -seed produce
// byte-identical output, serial or -parallel. Exits 0 when every point
// passes, 1 on any invariant violation, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// campaign is what -workload selects: the scenario library, the default
// and -short cluster sizes, and the workloads one sweep runs each scenario
// against (one per churn rate for member, one otherwise).
type campaign struct {
	title      string
	lib        []chaos.Scenario
	nodes      string
	shortNodes []int
	workloads  []chaos.Workload
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "multicast", "what runs under the faults: multicast, coll or member")
	scenario := fs.String("scenario", "", "comma-separated scenario names (empty = the workload's whole library)")
	nodeList := fs.String("nodes", "", "comma-separated cluster sizes (default 4,8,16; member 6,8,12)")
	msgs := fs.Int("msgs", 0, "multicast messages per run (default 12; member 16)")
	size := fs.Int("size", 0, "message size in bytes (default 10000; member 4096, as the mean)")
	rounds := fs.Int("rounds", 4, "collective rounds per run (coll only)")
	veclen := fs.Int("veclen", 4, "collective vector elements (coll only)")
	churnList := fs.String("transitions", "4,8,12", "comma-separated join/leave transition counts, the churn rate (member only)")
	seed := fs.Int64("seed", 1, "campaign seed")
	fabricName := fs.String("fabric", "myrinet", "interconnect backend: "+harness.FabricNames())
	ackEvery := fs.Int("ack-every", 0, "run with the ack economy enabled: cumulative acks every N packets plus piggybacking and tree aggregation (0/1 = per-packet acks)")
	short := fs.Bool("short", false, "CI smoke mode: the two smallest cluster sizes, 10 messages, 8 transitions")
	list := fs.Bool("list", false, "print the workload's scenario library and exit")
	parallel := fs.Int("parallel", 0, "max parallel campaign points (0 = all cores, 1 = serial)")
	showMetrics := fs.Bool("metrics", false, "report per-layer metrics after the campaign")
	metricsJSON := fs.Bool("metrics-json", false, "emit the metrics report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "chaosbench: "+format+"\n", a...)
		return 2
	}

	if *short {
		*msgs = 10
		*churnList = "8"
	}
	var c campaign
	switch *workloadName {
	case "multicast":
		c = campaign{"chaos campaign", chaos.Library(), "4,8,16", []int{4, 8},
			[]chaos.Workload{chaos.Multicast{Msgs: *msgs, Size: *size}}}
	case "coll":
		c = campaign{"collective chaos campaign", chaos.CollLibrary(), "4,8,16", []int{4, 8},
			[]chaos.Workload{chaos.Collective{Rounds: *rounds, Veclen: *veclen}}}
	case "member":
		c = campaign{"membership campaign", chaos.MemberLibrary(), "6,8,12", []int{6, 8}, nil}
		transitions, err := parseList(*churnList, 1, "transition count")
		if err != nil {
			return usage("%v", err)
		}
		for _, t := range transitions {
			c.workloads = append(c.workloads, chaos.Churn{Msgs: *msgs, Size: *size, Transitions: t})
		}
	default:
		return usage("unknown workload %q (want multicast, coll or member)", *workloadName)
	}

	if *list {
		for _, sc := range c.lib {
			fmt.Fprintf(stdout, "%-26s %s\n", sc.Name, sc.Desc)
		}
		return 0
	}
	scenarios := c.lib
	if *scenario != "" {
		scenarios = nil
		for _, name := range strings.Split(*scenario, ",") {
			sc, ok := chaos.Find(c.lib, strings.TrimSpace(name))
			if !ok {
				return usage("unknown %s scenario %q (use -workload %s -list)", *workloadName, name, *workloadName)
			}
			scenarios = append(scenarios, sc)
		}
	}

	// A cluster too small for the workload is the caller's mistake, not a
	// protocol failure: reject it before anything is built.
	if *nodeList == "" {
		*nodeList = c.nodes
	}
	nodes, err := parseList(*nodeList, c.workloads[0].MinNodes(), *workloadName+" cluster size")
	if err != nil {
		return usage("%v", err)
	}
	if *short {
		nodes = c.shortNodes
	}

	o := harness.DefaultOptions()
	o.Seed = *seed
	o.Workers = *parallel
	fc, err := harness.FabricPreset(*fabricName)
	if err != nil {
		return usage("%v", err)
	}
	o.Fabric = fc
	o.AckEconomy = *ackEvery
	if *showMetrics || *metricsJSON {
		o.Metrics = metrics.New()
	}
	rep := harness.NewReporter(o.Metrics)
	if rep.Enabled() {
		rep.JSON = *metricsJSON
	}

	results := o.CampaignSweep(c.workloads, scenarios, nodes)
	shape := fmt.Sprintf("%d scenarios x %d cluster sizes", len(scenarios), len(nodes))
	for _, p := range c.workloads[0].Params() {
		shape += fmt.Sprintf(" x %d %s rates", len(c.workloads), p.Name)
	}
	harness.WriteCampaignTable(stdout, fmt.Sprintf("%s: %s, fabric %s, seed %d", c.title, shape, fc.Kind, *seed), results)
	rep.Report(stdout, c.title)

	if n := harness.CampaignFailures(results); n > 0 {
		fmt.Fprintf(stderr, "chaosbench: %d of %d campaign points FAILED\n", n, len(results))
		return 1
	}
	fmt.Fprintf(stdout, "all %d campaign points passed\n", len(results))
	return 0
}

func parseList(s string, min int, what string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad %s %q (want integers >= %d)", what, part, min)
		}
		out = append(out, n)
	}
	return out, nil
}
