// Command explore runs the schedule-exploring model checker over the
// dynamic-membership protocol: it permutes the simulator's tie-break
// decisions among same-timestamp events, places faults and shifts churn
// requests, and evaluates the full membership invariant on every trace.
// Failures are delta-debugged to a minimal counterexample and printed
// with a one-line replay command.
//
//	explore                          500-schedule campaign at 8 nodes, seed 1
//	explore -schedules 5000 -seed 7  bigger hunt under a different seed
//	explore -nodes 12 -transitions 8 heavier workload per schedule
//	explore -replay 's1!t41.2'       re-run one schedule token and report
//
// Output is a pure function of the flags: two invocations with the same
// arguments emit byte-identical reports (the CI smoke diffs them under
// -race). Exits 0 when every schedule passes, 1 on any invariant
// violation, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/metrics"
)

func main() {
	schedules := flag.Int("schedules", 500, "distinct schedules to run in campaign mode")
	nodes := flag.Int("nodes", 8, "cluster size each schedule runs")
	msgs := flag.Int("msgs", 6, "multicast payloads per run")
	size := flag.Int("size", 512, "mean payload size in bytes")
	transitions := flag.Int("transitions", 4, "join/leave transitions per run")
	seed := flag.Int64("seed", 1, "exploration seed (drives workload, sampling and fault placement)")
	shrink := flag.Int("shrink", 250, "re-execution budget for delta-debugging each counterexample")
	replay := flag.String("replay", "", "replay one schedule token instead of running a campaign")
	quiet := flag.Bool("q", false, "suppress per-phase progress lines")
	showMetrics := flag.Bool("metrics", false, "report explorer metrics after the campaign")
	flag.Parse()

	// A cluster too small for the churn workload is a usage error, not a
	// campaign of counterexamples.
	if min := (chaos.Churn{}).MinNodes(); *nodes < min || *msgs < 1 || *transitions < 1 || *schedules < 1 || *shrink < 1 {
		fmt.Fprintf(os.Stderr, "explore: -nodes >= %d, -msgs/-transitions/-schedules/-shrink >= 1\n", min)
		os.Exit(2)
	}

	cfg := explore.Config{
		Nodes:         *nodes,
		Msgs:          *msgs,
		Size:          *size,
		Transitions:   *transitions,
		Seed:          *seed,
		MaxShrinkRuns: *shrink,
	}
	if *showMetrics {
		cfg.Metrics = metrics.New()
	}

	if *replay != "" {
		os.Exit(replayOne(cfg, *replay))
	}
	os.Exit(campaign(cfg, *schedules, *quiet, *showMetrics))
}

// campaign runs the exploration and prints the report; returns the exit
// code.
func campaign(cfg explore.Config, budget int, quiet, showMetrics bool) int {
	progress := func(line string) { fmt.Println(line) }
	if quiet {
		progress = nil
	}
	rep := explore.Explore(cfg, budget, progress)

	fmt.Printf("campaign: %d distinct schedules (%d enumerated, %d sampled), %d choice points, max branch %d, seed %d\n",
		rep.Distinct, rep.Enumerated, rep.Sampled, rep.ChoicePoints, rep.MaxBranch, cfg.Seed)
	if showMetrics && cfg.Metrics != nil {
		cfg.Metrics.Snapshot().WriteTable(os.Stdout)
	}
	if len(rep.Failures) == 0 {
		fmt.Printf("all %d schedules passed the membership invariant\n", rep.Distinct)
		return 0
	}
	for i, ce := range rep.Failures {
		fmt.Printf("counterexample %d: %s\n", i+1, ce.Schedule)
		fmt.Printf("  minimal (%d decisions, %d shrink runs): %s\n",
			ce.Minimal.Decisions(), ce.ShrinkRuns, ce.Minimal)
		for _, v := range ce.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
		fmt.Printf("  replay: %s\n", explore.ReproCommand(cfg, ce.Minimal))
	}
	fmt.Fprintf(os.Stderr, "explore: %d of %d schedules violated the membership invariant\n",
		len(rep.Failures), rep.Distinct)
	return 1
}

// replayOne re-executes a single schedule token and reports its verdict;
// returns the exit code.
func replayOne(cfg explore.Config, token string) int {
	sched, err := explore.Parse(token)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explore: bad -replay token: %v\n", err)
		return 2
	}
	out := explore.Run(cfg, sched)
	fmt.Printf("schedule %s\n", out.Schedule)
	fmt.Printf("  choice points %d, max branch %d, non-default decisions %d\n",
		out.ChoicePoints, out.MaxBranch, out.NonDefault)
	fmt.Printf("  finish %v, epochs %d, transitions %d, rejected %d\n",
		out.Finish, out.Epochs, out.Transitions, out.Rejected)
	if out.Pass {
		fmt.Println("PASS: membership invariant holds on this trace")
		return 0
	}
	for _, v := range out.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	min, runs := explore.Shrink(cfg, out, nil)
	if min.Schedule.Decisions() < out.Schedule.Decisions() {
		fmt.Printf("  minimal (%d decisions, %d shrink runs): %s\n",
			min.Schedule.Decisions(), runs, min.Schedule)
		fmt.Printf("  replay: %s\n", explore.ReproCommand(cfg, min.Schedule))
	}
	fmt.Println("FAIL: membership invariant violated")
	return 1
}
