// Command mcast runs the reproduction's experiments and tools, one
// subcommand each:
//
//	mcast gm       Figures 3 and 5: GM-level multisend and multicast, NB vs HB
//	mcast mpi      Figure 4: MPI-level broadcast, NB vs HB
//	mcast skew     Figures 6 and 7: MPI_Bcast host CPU time under process skew
//	mcast claims   every figure in one run, with a PASS/FAIL per paper claim
//	mcast scale    the future-work scalability study across Clos fabrics
//	mcast coll     NIC-resident collectives at 512-2048 hosts, or barrier skew
//	mcast chaos    deterministic fault-injection campaigns
//	mcast explore  the schedule-exploring model checker over membership
//	mcast tree     the spanning trees each scheme builds, or a churn run's
//	mcast trace    one multicast's packet timeline
//	mcast traffic  synthetic traffic patterns over the GM substrate
//
// `mcast <sub> -h` lists a subcommand's flags. -cpuprofile and -memprofile
// go before the subcommand: `mcast -cpuprofile cpu.prof gm -fig 5`. Every
// output is a pure function of the flags, bar `scale -matrix`, which times
// runs on the wall clock. Exit status 0 is success, 1 a failed claim or
// invariant, 2 a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var commands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"gm": runGM, "mpi": runMPI, "skew": runSkew, "claims": runClaims,
	"scale": runScale, "coll": runColl, "chaos": runChaos, "explore": runExplore,
	"tree": runTree, "trace": runTrace, "traffic": runTraffic,
}

// run takes the profile flags, then runs the subcommand the first
// argument names and returns its exit status.
func run(args []string, stdout, stderr io.Writer) (code int) {
	const usage = "usage: mcast [-cpuprofile f] [-memprofile f] gm|mpi|skew|claims|scale|coll|chaos|explore|tree|trace|traffic [flags]"
	fs := flag.NewFlagSet("mcast", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, usage); fs.PrintDefaults() }
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	if fs.Parse(args) != nil {
		return 2
	}
	cmd, ok := commands[fs.Arg(0)]
	if !ok {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "mcast: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}
	code = cmd(fs.Args()[1:], stdout, stderr)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		// After a GC, so dead sweep clusters do not swamp what is retained.
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
	}
	return code
}

// command is one subcommand's flag set. The flags more than one subcommand
// takes are each declared once, by a method here; parse checks the shared
// ones a subcommand declared, and options reads back the harness ones.
type command struct {
	*flag.FlagSet
	stderr io.Writer

	seedV                  *int64
	parallelV, ackEveryV   *int
	fabricV                *string
	metricsV, metricsJSONV *bool
	lossV                  *float64
	fc                     fabric.Config // -fabric's preset, once parsed
}

func newCommand(name string, stderr io.Writer) *command {
	fs := flag.NewFlagSet("mcast "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &command{FlagSet: fs, stderr: stderr}
}

// usage reports a bad flag value and returns exit status 2.
func (c *command) usage(format string, a ...any) int {
	fmt.Fprintf(c.stderr, c.Name()+": "+format+"\n", a...)
	return 2
}

func (c *command) seed() *int64 {
	c.seedV = c.Int64("seed", 1, "simulation seed")
	return c.seedV
}

// harness declares -parallel and -seed, the flags of every harness sweep.
func (c *command) harness() {
	c.seed()
	c.parallelV = c.Int("parallel", 0, "max parallel sweep points (0 = all cores, 1 = serial)")
}

func (c *command) fabric() {
	c.fabricV = c.String("fabric", "myrinet", "interconnect backend: "+harness.FabricNames())
}

func (c *command) ackEvery() {
	c.ackEveryV = c.Int("ack-every", 0, "enable the ack economy: cumulative acks every N packets with piggybacking and tree aggregation (0/1 = per-packet acks)")
}

// metrics declares -metrics, and -metrics-json with json.
func (c *command) metrics(json bool) *bool {
	c.metricsV = c.Bool("metrics", false, "report per-layer metrics after each experiment")
	if json {
		c.metricsJSONV = c.Bool("metrics-json", false, "emit the metrics report as JSON")
	}
	return c.metricsV
}

func (c *command) iters(def int) *int  { return c.Int("iters", def, "timed iterations per point") }
func (c *command) warmup(def int) *int { return c.Int("warmup", def, "warm-up iterations per point") }
func (c *command) size(def int) *int   { return c.Int("size", def, "message size in bytes") }
func (c *command) msgs(def int) *int   { return c.Int("msgs", def, "messages per run") }
func (c *command) shards(def int) *int {
	return c.Int("shards", def, "engines per simulation run (0 or 1 = serial engine)")
}
func (c *command) veclen(def int) *int {
	return c.Int("veclen", def, "collective vector elements per rank")
}
func (c *command) nodes(def int) *int { return c.Int("nodes", def, "system size") }
func (c *command) nodeList(def string) *string {
	return c.String("nodes", def, "comma-separated system sizes")
}
func (c *command) fig(which string) *int {
	return c.Int("fig", 0, "figure to regenerate: "+which+" (0 = both)")
}
func (c *command) plot() *bool { return c.Bool("plot", false, "render ASCII curves after the tables") }
func (c *command) short() *bool {
	return c.Bool("short", false, "CI smoke mode: small systems, few iterations")
}
func (c *command) loss() *float64 {
	c.lossV = c.Float64("loss", 0, "per-link packet loss probability")
	return c.lossV
}

// parse parses args and checks the shared flags a subcommand declared:
// -loss is a probability and -fabric names a preset. It reports a bad
// value and returns false.
func (c *command) parse(args []string) bool {
	if c.Parse(args) != nil {
		return false
	}
	if c.lossV != nil && !(*c.lossV >= 0 && *c.lossV <= 1) {
		c.usage("-loss %v outside [0, 1]", *c.lossV)
		return false
	}
	if c.fabricV != nil {
		fc, err := harness.FabricPreset(*c.fabricV)
		if err != nil {
			c.usage("%v", err)
			return false
		}
		c.fc = fc
	}
	return true
}

// options builds the harness options from the declared flags; with
// metrics requested it also returns the reporter that prints them.
func (c *command) options() (harness.Options, *harness.Reporter) {
	o := harness.DefaultOptions()
	o.Seed = *c.seedV
	o.Workers = *c.parallelV
	if c.fabricV != nil {
		o.Fabric = c.fc
	}
	if c.ackEveryV != nil {
		o.AckEconomy = *c.ackEveryV
	}
	json := c.metricsJSONV != nil && *c.metricsJSONV
	if c.metricsV != nil && (*c.metricsV || json) {
		o.Metrics = metrics.New()
	}
	rep := harness.NewReporter(o.Metrics)
	if rep.Enabled() {
		rep.JSON = json
	}
	return o, rep
}

// parseInts reads a comma-separated list of integers, each at least min;
// what names the list in the error.
func parseInts(s string, min int, what string) ([]int, error) {
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
