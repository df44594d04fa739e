package explore

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes an exploration: the workload shape every schedule
// runs, and the exploration budget knobs. The zero value explores the CI
// smoke shape.
type Config struct {
	// Nodes/Msgs/Size/Transitions shape the churn workload each schedule
	// drives (defaults 8/6/512/4 — small enough that one run is a few
	// milliseconds of wall time, large enough to roll several epochs).
	Nodes       int
	Msgs        int
	Size        int
	Transitions int
	// Seed feeds the cluster RNG and (mixed per derivation) the churn
	// plan; Schedule.Seed overrides it per schedule.
	Seed int64
	// Deadline bounds each run in virtual time (default 1 simulated
	// second).
	Deadline sim.Time
	// MaxShrinkRuns caps the re-executions delta-debugging may spend per
	// counterexample (default 250).
	MaxShrinkRuns int
	// Metrics optionally receives explorer instrumentation (runs,
	// failures, shrink runs). Each schedule's cluster always uses a
	// private registry — the invariant checker needs an isolated diff.
	Metrics *metrics.Registry

	// failNonDefault is the test-only injected mutation: when > 0, a run
	// is marked failed once it takes at least this many non-default
	// tie-break decisions. It exists to prove end to end that the
	// explorer catches a schedule-dependent bug and shrinks it to a
	// minimal decision set.
	failNonDefault int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Msgs <= 0 {
		c.Msgs = 6
	}
	if c.Size <= 0 {
		c.Size = 512
	}
	if c.Transitions <= 0 {
		c.Transitions = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = sim.Second
	}
	if c.MaxShrinkRuns <= 0 {
		c.MaxShrinkRuns = 250
	}
	return c
}

// Outcome is one schedule's verdict plus the observations the explorer
// steers by.
type Outcome struct {
	Schedule   Schedule
	Pass       bool
	Violations []string

	// ChoicePoints counts the Steps where >= 2 events were enabled;
	// MaxBranch the widest such set; NonDefault how many of the
	// schedule's ticks actually changed a decision (a tick whose pos the
	// run never reached, or whose val reduced to 0, moves nothing).
	ChoicePoints int
	MaxBranch    int
	NonDefault   int

	Finish      sim.Time
	Epochs      int
	Rejected    int
	Transitions int
}

// shifted is the membership workload under one schedule's churn shifts.
// The base plan derives from the seed exactly as in the chaos membership
// campaigns, so schedule seed s explores the same workload
// `mcast chaos -workload member` scripts at seed s.
type shifted struct {
	chaos.Churn
	shifts []Shift
}

func (w shifted) Plan(cfg chaos.Config) (chaos.Job, error) {
	job, err := w.NewJob(cfg)
	if err != nil {
		return nil, err
	}
	for _, sh := range w.shifts {
		if sh.Event < 0 || sh.Event >= len(job.Plan.Events) {
			continue // shrinking may orphan a shift; it just stops mattering
		}
		job.Plan.Events[sh.Event].At += sh.By
	}
	return job, nil
}

// Run executes one schedule from scratch as a single run of the chaos
// campaign runner — fresh serial cluster, fresh churn plan with the
// schedule's shifts, the schedule's faults installed, the schedule's
// tie-break decisions fed to the engine chooser — which holds the trace
// to the full membership invariant set. Identical (Config, Schedule)
// pairs produce identical Outcomes, which is what makes the printed repro
// command a faithful replay.
func Run(cfg Config, sched Schedule) Outcome {
	cfg = cfg.withDefaults()
	if sched.Seed == 0 {
		sched.Seed = cfg.Seed
	}
	out := Outcome{Schedule: sched}

	// The chooser consumes the schedule's sparse tick overrides by choice
	// position; every position not named fires the default (FIFO) pick.
	ticks := make(map[uint32]uint32, len(sched.Ticks))
	for _, t := range sched.Ticks {
		ticks[t.Pos] = t.Val
	}
	points, maxBranch, nonDefault := 0, 0, 0
	chooser := func(n int) int {
		pos := uint32(points)
		points++
		if n > maxBranch {
			maxBranch = n
		}
		if v, ok := ticks[pos]; ok {
			pick := int(v % uint32(n))
			if pick != 0 {
				nonDefault++
			}
			return pick
		}
		return 0
	}

	// The scenario's name seeds the injector. Config.Shards stays zero: the
	// chooser needs the serial engine.
	inject := func(f *chaos.Fault) {
		for i, fp := range sched.Faults {
			name := fmt.Sprintf("%s-%d", fp.Kind, i)
			until := fp.At + fp.Dur
			switch fp.Kind {
			case FaultDropData:
				f.Inj.DropWindow(name, fp.At, until, chaos.MatchData)
			case FaultDropAcks:
				f.Inj.DropWindow(name, fp.At, until, chaos.MatchAcks)
			case FaultDup:
				f.Inj.Duplicate(name, fp.At, until, 3, chaos.MatchAll)
			case FaultPause:
				n := fp.Node
				if n < 0 || n >= cfg.Nodes {
					n = cfg.Nodes - 1
				}
				f.Inj.PauseNIC(f.Cluster.Nodes[n].HW, fp.At, until)
			default:
				// Parse admits only the kinds above.
				panic(fmt.Sprintf("explore: unknown fault kind %q", fp.Kind))
			}
		}
		f.Cluster.Eng.SetChooser(chooser)
	}
	run := chaos.RunOnce(
		shifted{chaos.Churn{Msgs: cfg.Msgs, Size: cfg.Size, Transitions: cfg.Transitions}, sched.Shifts},
		chaos.Scenario{Name: "explore-faults", Inject: inject},
		chaos.Config{Nodes: cfg.Nodes, Seed: sched.Seed, Deadline: cfg.Deadline}, 0)

	out.Violations = run.Violations
	if cfg.failNonDefault > 0 && nonDefault >= cfg.failNonDefault {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"injected mutation: %d non-default decisions taken (threshold %d)", nonDefault, cfg.failNonDefault))
	}
	out.Pass = len(out.Violations) == 0
	out.ChoicePoints = points
	out.MaxBranch = maxBranch
	out.NonDefault = nonDefault
	out.Finish = run.Finish
	out.Epochs = int(run.Counter("epochs"))
	out.Rejected = int(run.Counter("rejected"))
	if out.Epochs > 0 {
		out.Transitions = out.Epochs - 1 // every epoch but the initial view was a transition
	}
	return out
}

// ReproCommand renders the one-line command that replays a schedule.
func ReproCommand(cfg Config, sched Schedule) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("go run ./cmd/mcast explore -nodes %d -msgs %d -size %d -transitions %d -replay '%s'",
		cfg.Nodes, cfg.Msgs, cfg.Size, cfg.Transitions, sched.String())
}
