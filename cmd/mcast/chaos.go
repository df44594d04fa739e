package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// campaign is what chaos -workload selects: the scenario library, the
// default and -short cluster sizes, and the workloads one sweep runs each
// scenario against (one per churn rate for member, one otherwise).
type campaign struct {
	title      string
	lib        []chaos.Scenario
	nodes      string
	shortNodes []int
	workloads  []chaos.Workload
}

// runChaos runs the deterministic fault-injection campaigns over the
// NIC-based multicast stack, one workload per invocation:
//
//	chaos                     the multicast stream: every library scenario at 4, 8 and 16 nodes
//	chaos -workload coll      rounds of NIC barrier/allreduce/allgather under burst
//	                          loss, dup storms, ack loss and root outages
//	chaos -workload member    the stream under membership churn: every scenario
//	                          at 6/8/12 nodes x 4/8/12 join/leave transitions
//	chaos -list               print the workload's scenario library
//	chaos -scenario burst-loss -nodes 8
//	chaos -short              CI smoke: small clusters, few messages
//
// Each scenario runs a clean baseline and a faulted run on identically
// seeded clusters, asserts the recovery invariants (every receiver got
// every byte exactly once in order — under churn: every payload of epoch E
// reached exactly E's members — all buffers and tokens returned, no leaked
// timers, balanced fabric accounting) and reports the recovery latency the
// fault cost. Exits 1 on any invariant violation.
func runChaos(args []string, stdout, stderr io.Writer) int {
	c := newCommand("chaos", stderr)
	workloadName := c.String("workload", "multicast", "what runs under the faults: multicast, coll or member")
	scenario := c.String("scenario", "", "comma-separated scenario names (empty = the workload's whole library)")
	nodeList := c.nodeList("")
	msgs, size := c.msgs(0), c.size(0)
	rounds := c.Int("rounds", 4, "collective rounds per run (coll only)")
	veclen := c.veclen(4)
	churnList := c.String("transitions", "4,8,12", "comma-separated join/leave transition counts, the churn rate (member only)")
	short := c.short()
	list := c.Bool("list", false, "print the workload's scenario library and exit")
	c.harness()
	c.fabric()
	c.ackEvery()
	c.metrics(true)
	c.Lookup("nodes").Usage += " (default 4,8,16; member 6,8,12)"
	c.Lookup("msgs").Usage += " (default 12; member 16)"
	c.Lookup("size").Usage += " (default 10000; member 4096, as the mean)"
	if code, ok := c.parse(args); !ok {
		return code
	}

	if *short {
		*msgs = 10
		*churnList = "8"
	}
	var cp campaign
	switch *workloadName {
	case "multicast":
		cp = campaign{"chaos campaign", chaos.Library(), "4,8,16", []int{4, 8},
			[]chaos.Workload{chaos.Multicast{Msgs: *msgs, Size: *size}}}
	case "coll":
		cp = campaign{"collective chaos campaign", chaos.CollLibrary(), "4,8,16", []int{4, 8},
			[]chaos.Workload{chaos.Collective{Rounds: *rounds, Veclen: *veclen}}}
	case "member":
		cp = campaign{"membership campaign", chaos.MemberLibrary(), "6,8,12", []int{6, 8}, nil}
		transitions, err := parseInts(*churnList, 1, "transition count")
		if err != nil {
			return c.usage("%v", err)
		}
		for _, t := range transitions {
			cp.workloads = append(cp.workloads, chaos.Churn{Msgs: *msgs, Size: *size, Transitions: t})
		}
	default:
		return c.usage("unknown workload %q (want multicast, coll or member)", *workloadName)
	}

	if *list {
		for _, sc := range cp.lib {
			fmt.Fprintf(stdout, "%-26s %s\n", sc.Name, sc.Desc)
		}
		return 0
	}
	scenarios := cp.lib
	if *scenario != "" {
		scenarios = nil
		for _, name := range strings.Split(*scenario, ",") {
			sc, ok := chaos.Find(cp.lib, strings.TrimSpace(name))
			if !ok {
				return c.usage("unknown %s scenario %q (use -workload %s -list)", *workloadName, name, *workloadName)
			}
			scenarios = append(scenarios, sc)
		}
	}

	// A cluster too small for the workload is the caller's mistake, not a
	// protocol failure: reject it before anything is built.
	if *nodeList == "" {
		*nodeList = cp.nodes
	}
	nodes, err := parseInts(*nodeList, cp.workloads[0].MinNodes(), *workloadName+" cluster size")
	if err != nil {
		return c.usage("%v", err)
	}
	if *short {
		nodes = cp.shortNodes
	}
	o, rep := c.options()

	results := o.CampaignSweep(cp.workloads, scenarios, nodes)
	shape := fmt.Sprintf("%d scenarios x %d cluster sizes", len(scenarios), len(nodes))
	for _, p := range cp.workloads[0].Params() {
		shape += fmt.Sprintf(" x %d %s rates", len(cp.workloads), p.Name)
	}
	harness.WriteCampaignTable(stdout, fmt.Sprintf("%s: %s, fabric %s, seed %d", cp.title, shape, o.Fabric.Kind, o.Seed), results)
	rep.Report(stdout, cp.title)

	if n := harness.CampaignFailures(results); n > 0 {
		fmt.Fprintf(stderr, "%s: %d of %d campaign points FAILED\n", c.Name(), n, len(results))
		return 1
	}
	fmt.Fprintf(stdout, "all %d campaign points passed\n", len(results))
	return 0
}

// runExplore runs the schedule-exploring model checker over the
// dynamic-membership protocol: it permutes the simulator's tie-break
// decisions among same-timestamp events, places faults and shifts churn
// requests, and evaluates the full membership invariant on every trace.
// Failures are delta-debugged to a minimal counterexample and printed with
// a one-line replay command.
//
//	explore                          500-schedule campaign at 8 nodes, seed 1
//	explore -schedules 5000 -seed 7  bigger hunt under a different seed
//	explore -nodes 12 -transitions 8 heavier workload per schedule
//	explore -replay 's1!t41.2'       re-run one schedule token and report
//
// Exits 1 on any invariant violation.
func runExplore(args []string, stdout, stderr io.Writer) int {
	c := newCommand("explore", stderr)
	schedules := c.Int("schedules", 500, "distinct schedules to run in campaign mode")
	nodes, msgs, size := c.nodes(8), c.msgs(6), c.size(512)
	transitions := c.Int("transitions", 4, "join/leave transitions per run")
	seed := c.seed()
	shrink := c.Int("shrink", 250, "re-execution budget for delta-debugging each counterexample")
	replay := c.String("replay", "", "replay one schedule token instead of running a campaign")
	quiet := c.Bool("q", false, "suppress per-phase progress lines")
	showMetrics := c.metrics(false)
	if code, ok := c.parse(args); !ok {
		return code
	}
	// A cluster too small for the churn workload is a usage error, not a
	// campaign of counterexamples.
	if min := (chaos.Churn{}).MinNodes(); *nodes < min || *msgs < 1 || *transitions < 1 || *schedules < 1 || *shrink < 1 {
		return c.usage("-nodes >= %d, -msgs/-transitions/-schedules/-shrink >= 1", min)
	}
	cfg := explore.Config{Nodes: *nodes, Msgs: *msgs, Size: *size, Transitions: *transitions, Seed: *seed, MaxShrinkRuns: *shrink}
	if *showMetrics {
		cfg.Metrics = metrics.New()
	}
	p := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }

	if *replay != "" {
		sched, err := explore.Parse(*replay)
		if err != nil {
			return c.usage("bad -replay token: %v", err)
		}
		out := explore.Run(cfg, sched)
		p("schedule %s", out.Schedule)
		p("  choice points %d, max branch %d, non-default decisions %d", out.ChoicePoints, out.MaxBranch, out.NonDefault)
		p("  finish %v, epochs %d, transitions %d, rejected %d", out.Finish, out.Epochs, out.Transitions, out.Rejected)
		if out.Pass {
			p("PASS: membership invariant holds on this trace")
			return 0
		}
		for _, v := range out.Violations {
			p("  violation: %s", v)
		}
		if min, runs := explore.Shrink(cfg, out, nil); min.Schedule.Decisions() < out.Schedule.Decisions() {
			p("  minimal (%d decisions, %d shrink runs): %s", min.Schedule.Decisions(), runs, min.Schedule)
			p("  replay: %s", explore.ReproCommand(cfg, min.Schedule))
		}
		p("FAIL: membership invariant violated")
		return 1
	}

	var progress func(string)
	if !*quiet {
		progress = func(line string) { p("%s", line) }
	}
	rep := explore.Explore(cfg, *schedules, progress)
	p("campaign: %d distinct schedules (%d enumerated, %d sampled), %d choice points, max branch %d, seed %d",
		rep.Distinct, rep.Enumerated, rep.Sampled, rep.ChoicePoints, rep.MaxBranch, cfg.Seed)
	if cfg.Metrics != nil {
		cfg.Metrics.Snapshot().WriteTable(stdout)
	}
	if len(rep.Failures) == 0 {
		p("all %d schedules passed the membership invariant", rep.Distinct)
		return 0
	}
	for i, ce := range rep.Failures {
		p("counterexample %d: %s", i+1, ce.Schedule)
		p("  minimal (%d decisions, %d shrink runs): %s", ce.Minimal.Decisions(), ce.ShrinkRuns, ce.Minimal)
		for _, v := range ce.Violations {
			p("  violation: %s", v)
		}
		p("  replay: %s", explore.ReproCommand(cfg, ce.Minimal))
	}
	fmt.Fprintf(stderr, "%s: %d of %d schedules violated the membership invariant\n", c.Name(), len(rep.Failures), rep.Distinct)
	return 1
}
