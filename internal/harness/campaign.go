package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/chaos"
)

// CampaignSweep runs each scenario at every cluster size against every
// workload of ws — one for most campaigns, one per churn rate for the
// membership campaign — under the parallel sweep runner, returning results
// scenario-major, then size-major, in deterministic order. Each point is
// an independent experiment (own cluster, own seeded RNGs), so results are
// byte-identical whether the sweep runs serial or fanned out — the
// property the campaign's reproducibility contract rests on. A shared
// metrics registry (Options.Metrics) forces the sweep serial, as
// everywhere in the harness.
func (o Options) CampaignSweep(ws []chaos.Workload, scenarios []chaos.Scenario, nodeCounts []int) []chaos.Result {
	type point struct {
		w     chaos.Workload
		sc    chaos.Scenario
		nodes int
	}
	var pts []point
	for _, sc := range scenarios {
		for _, n := range nodeCounts {
			for _, w := range ws {
				pts = append(pts, point{w, sc, n})
			}
		}
	}
	return parallelMap(o.workerCount(len(pts)), pts, func(_ int, p point) chaos.Result {
		return chaos.Run(p.w, p.sc, chaos.Config{
			Nodes:    p.nodes,
			Seed:     o.Seed,
			Metrics:  o.Metrics,
			Fabric:   o.Fabric,
			AckEvery: o.AckEconomy,
		})
	})
}

// WriteCampaignTable renders a campaign's per-point verdicts in the one
// column layout every workload shares — scenario, nodes, the workload's
// parameters, verdict, recovery latency, the common fault and recovery
// traffic, the workload's own counters — with invariant violations
// itemized under any failing row.
func WriteCampaignTable(w io.Writer, title string, results []chaos.Result) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	// One sweep is one kind of workload, so the first row names the columns.
	var first chaos.Result
	if len(results) > 0 {
		first = results[0]
	}
	fmt.Fprint(tw, "scenario\tnodes")
	for _, p := range first.Params {
		fmt.Fprintf(tw, "\t%s", p.Name)
	}
	fmt.Fprint(tw, "\tverdict\trecovery\tdrops\tdups\tpaused\tretrans\ttimeouts\tnacks")
	for _, c := range first.Counters {
		fmt.Fprintf(tw, "\t%s", c.Name)
	}
	fmt.Fprintln(tw)
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d", r.Scenario, r.Nodes)
		for _, p := range r.Params {
			fmt.Fprintf(tw, "\t%d", p.Value)
		}
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(tw, "\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%d",
			verdict, r.Recovery, r.Drops, r.Dups, r.PausedDrops, r.Retransmits, r.Timeouts, r.Nacks)
		for _, c := range r.Counters {
			fmt.Fprintf(tw, "\t%d", c.Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, r := range results {
		if r.Pass {
			continue
		}
		fmt.Fprintf(w, "\n%s @ %d nodes", r.Scenario, r.Nodes)
		for _, p := range r.Params {
			fmt.Fprintf(w, " / %s %d", p.Name, p.Value)
		}
		fmt.Fprintln(w, " violated:")
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  - %s\n", v)
		}
	}
}

// CampaignFailures counts failing results.
func CampaignFailures(results []chaos.Result) int {
	n := 0
	for _, r := range results {
		if !r.Pass {
			n++
		}
	}
	return n
}
