package explore

import (
	"fmt"

	"repro/internal/sim"
)

// Counterexample is one failing schedule, shrunk.
type Counterexample struct {
	Schedule   Schedule // the schedule that first failed
	Minimal    Schedule // the ddmin-reduced schedule (still failing)
	Violations []string // the minimal schedule's violations
	ShrinkRuns int      // re-executions delta debugging spent
}

// Report is one exploration campaign's result.
type Report struct {
	// Distinct counts distinct schedules run (by canonical token);
	// Enumerated and Sampled split them by origin. The probe run of the
	// empty schedule is included in Distinct.
	Distinct   int
	Enumerated int
	Sampled    int
	// ChoicePoints/MaxBranch describe the default schedule's trace: how
	// many tie-break decisions it exposes and the widest enabled set.
	ChoicePoints int
	MaxBranch    int
	Failures     []Counterexample
}

// Explore runs a campaign of up to budget distinct schedules against the
// config's workload: the default schedule first (the probe that measures
// the decision space), then systematic single-decision enumeration over
// the probe's choice points, then seed-derived random sampling of deeper
// schedules (multi-tick, faults, churn shifts). Every failure is shrunk
// to a minimal counterexample. The whole campaign is a pure function of
// cfg — two calls return identical Reports, which cmd/mcast's
// TestCLIGoldens checks under -race.
//
// progress, when non-nil, receives one line per phase and per failure.
func Explore(cfg Config, budget int, progress func(string)) Report {
	cfg = cfg.withDefaults()
	if budget <= 0 {
		budget = 500
	}
	note := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	var rep Report
	seen := make(map[string]bool, budget)
	mRuns, mFailures, mShrinkRuns := exploreMetrics(cfg)

	// A failure's shrink + bookkeeping, shared by all phases.
	fail := func(out Outcome) {
		mFailures.Inc()
		min, runs := Shrink(cfg, out, mShrinkRuns)
		rep.Failures = append(rep.Failures, Counterexample{
			Schedule:   out.Schedule,
			Minimal:    min.Schedule,
			Violations: min.Violations,
			ShrinkRuns: runs,
		})
		note("FAIL %s -> minimal %s (%d decisions, %d shrink runs)",
			out.Schedule, min.Schedule, min.Schedule.Decisions(), runs)
	}
	run := func(s Schedule) (Outcome, bool) {
		key := s.String()
		if seen[key] {
			return Outcome{}, false
		}
		seen[key] = true
		mRuns.Inc()
		out := Run(cfg, s)
		if !out.Pass {
			fail(out)
		}
		return out, true
	}

	// Phase 1: probe. The empty schedule is the default FIFO run; its
	// choice-point count is the enumerable decision space.
	probe, _ := run(Schedule{Seed: cfg.Seed})
	rep.ChoicePoints = probe.ChoicePoints
	rep.MaxBranch = probe.MaxBranch
	note("probe: %d choice points, max branch %d, finish %v",
		probe.ChoicePoints, probe.MaxBranch, probe.Finish)

	// Phase 2: systematic single-decision enumeration. Half the budget
	// flips one tie-break at a time; positions stride the whole run so
	// shallow and deep choice points both get coverage even when the
	// space exceeds the budget.
	enumBudget := budget / 2
	vals := probe.MaxBranch - 1
	if vals > 3 {
		vals = 3
	}
	if vals > 0 && probe.ChoicePoints > 0 {
		stride := probe.ChoicePoints * vals / enumBudget
		if stride < 1 {
			stride = 1
		}
		for pos := 0; pos < probe.ChoicePoints && len(seen) < 1+enumBudget; pos += stride {
			for v := 1; v <= vals && len(seen) < 1+enumBudget; v++ {
				if _, ok := run(Schedule{Seed: cfg.Seed, Ticks: []Tick{{Pos: uint32(pos), Val: uint32(v)}}}); ok {
					rep.Enumerated++
				}
			}
		}
	}
	note("enumerated %d single-decision schedules", rep.Enumerated)

	// Phase 3: seed-derived random sampling of deeper schedules. Each
	// sample combines several tie-break overrides with optional fault
	// placements and churn shifts — the compound interleavings
	// enumeration cannot reach.
	rng := sim.NewRNG(sampleSeed(cfg.Seed))
	span := int64(600 * sim.Microsecond) // where the run's traffic and churn live
	for guard := 0; len(seen) < 1+budget && guard < budget*4; guard++ {
		s := Schedule{Seed: cfg.Seed}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			pos := uint32(rng.Intn(maxInt(probe.ChoicePoints, 1)))
			s.Ticks = append(s.Ticks, Tick{Pos: pos, Val: uint32(1 + rng.Intn(maxInt(probe.MaxBranch-1, 1)))})
		}
		if rng.Intn(4) == 0 {
			kinds := []string{FaultDropData, FaultDropAcks, FaultDup, FaultPause}
			f := FaultPoint{
				Kind: kinds[rng.Intn(len(kinds))],
				At:   sim.Time(rng.Intn(int(span))),
				Dur:  20*sim.Microsecond + sim.Time(rng.Intn(int(130*sim.Microsecond))),
				Node: 1 + rng.Intn(cfg.Nodes-1),
			}
			s.Faults = append(s.Faults, f)
		}
		if rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				s.Shifts = append(s.Shifts, Shift{
					Event: rng.Intn(maxInt(cfg.Transitions, 1)),
					By:    sim.Time(rng.Intn(int(80 * sim.Microsecond))),
				})
			}
		}
		if _, ok := run(s); ok {
			rep.Sampled++
		}
	}
	note("sampled %d randomized schedules", rep.Sampled)

	rep.Distinct = len(seen)
	return rep
}

// sampleSeed derives the sampling RNG's seed from the campaign seed
// (splitmix-style finalizer) so schedule contents and exploration order
// are a pure function of the seed.
func sampleSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & 0x7fffffffffffffff)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
