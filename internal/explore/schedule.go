// Package explore turns the deterministic simulator into a protocol model
// checker for the epoch membership subsystem. A Schedule is a compact,
// replayable description of one execution of a churn run: the base seed
// (cluster wiring + churn plan), a sparse set of tie-break decisions fed
// to the engine's controlled scheduler (sim.Engine.SetChooser), a set of
// fault actions reusing the chaos injector's deterministic rules, and a
// set of churn-timing shifts. The explorer enumerates and samples
// schedules, runs each as one run of the chaos campaign runner's churn
// workload — so every trace is held to the full membership invariant set
// the campaigns apply — delta-debugs any failure down to a minimal
// counterexample, and prints a one-line command that replays it
// byte-identically.
package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Tick overrides one tie-break decision: at the pos'th choice point of
// the run (a Step where >= 2 cross-domain events are enabled at the same
// timestamp), fire candidate val instead of candidate 0. val is reduced
// modulo the live candidate count, so every (pos, val) pair is a valid
// schedule of every run.
type Tick struct {
	Pos uint32
	Val uint32
}

// Fault kinds the explorer can place. Each reuses a deterministic chaos
// injector rule, so a fault's effect depends only on the schedule.
const (
	FaultDropData = "drop-data" // drop all data-bearing frames in the window
	FaultDropAcks = "drop-acks" // drop all ack/nack frames in the window
	FaultDup      = "dup"       // duplicate every 3rd packet in the window
	FaultPause    = "pause"     // pause one node's NIC for the window
)

// FaultPoint places one fault action on the run's timeline.
type FaultPoint struct {
	Kind string
	At   sim.Time // window start (virtual time)
	Dur  sim.Time // window length
	Node int      // pause target; ignored by the fabric-wide kinds
}

// Shift moves one churn-plan event later by By — the explorer's handle on
// where join/leave requests land relative to traffic and faults.
type Shift struct {
	Event int
	By    sim.Time
}

// Schedule is one fully-determined execution: seed plus decisions. The
// zero-decision Schedule{Seed: s} is the default FIFO run of seed s.
type Schedule struct {
	Seed   int64
	Ticks  []Tick
	Faults []FaultPoint
	Shifts []Shift
}

// Decisions counts the schedule's explicit decision items — the quantity
// shrinking minimizes.
func (s Schedule) Decisions() int { return len(s.Ticks) + len(s.Faults) + len(s.Shifts) }

// canon returns the schedule with its decision lists sorted into the
// canonical order String emits, without mutating the receiver.
func (s Schedule) canon() Schedule {
	s.Ticks = append([]Tick(nil), s.Ticks...)
	s.Faults = append([]FaultPoint(nil), s.Faults...)
	s.Shifts = append([]Shift(nil), s.Shifts...)
	sort.Slice(s.Ticks, func(i, j int) bool {
		if s.Ticks[i].Pos != s.Ticks[j].Pos {
			return s.Ticks[i].Pos < s.Ticks[j].Pos
		}
		return s.Ticks[i].Val < s.Ticks[j].Val
	})
	sort.Slice(s.Faults, func(i, j int) bool {
		a, b := s.Faults[i], s.Faults[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
	sort.Slice(s.Shifts, func(i, j int) bool {
		if s.Shifts[i].Event != s.Shifts[j].Event {
			return s.Shifts[i].Event < s.Shifts[j].Event
		}
		return s.Shifts[i].By < s.Shifts[j].By
	})
	return s
}

// String renders the schedule as one replayable token:
//
//	s<seed>[!t<pos>.<val>]...[!f<kind>@<at>+<dur>.n<node>]...[!c<event>+<by>]...
//
// Times are integer nanoseconds of virtual time, so Parse(String()) is
// exact. Decision lists are emitted in canonical sorted order — the token
// doubles as the dedup key for "distinct schedules".
func (s Schedule) String() string {
	s = s.canon()
	var b strings.Builder
	fmt.Fprintf(&b, "s%d", s.Seed)
	for _, t := range s.Ticks {
		fmt.Fprintf(&b, "!t%d.%d", t.Pos, t.Val)
	}
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "!f%s@%d+%d.n%d", f.Kind, int64(f.At), int64(f.Dur), f.Node)
	}
	for _, c := range s.Shifts {
		fmt.Fprintf(&b, "!c%d+%d", c.Event, int64(c.By))
	}
	return b.String()
}

// Parse decodes a String()-rendered schedule token.
func Parse(tok string) (Schedule, error) {
	var s Schedule
	parts := strings.Split(tok, "!")
	if len(parts) == 0 || !strings.HasPrefix(parts[0], "s") {
		return s, fmt.Errorf("explore: schedule %q does not start with s<seed>", tok)
	}
	seed, err := strconv.ParseInt(parts[0][1:], 10, 64)
	if err != nil {
		return s, fmt.Errorf("explore: bad seed in %q: %v", tok, err)
	}
	s.Seed = seed
	for _, p := range parts[1:] {
		if p == "" {
			return s, fmt.Errorf("explore: empty decision in %q", tok)
		}
		body := p[1:]
		switch p[0] {
		case 't':
			var pos, val uint32
			if _, err := fmt.Sscanf(body, "%d.%d", &pos, &val); err != nil {
				return s, fmt.Errorf("explore: bad tick %q: %v", p, err)
			}
			s.Ticks = append(s.Ticks, Tick{Pos: pos, Val: val})
		case 'f':
			at := strings.IndexByte(body, '@')
			if at < 0 {
				return s, fmt.Errorf("explore: bad fault %q", p)
			}
			kind := body[:at]
			switch kind {
			case FaultDropData, FaultDropAcks, FaultDup, FaultPause:
			default:
				return s, fmt.Errorf("explore: unknown fault kind %q", kind)
			}
			var start, dur int64
			var node int
			if _, err := fmt.Sscanf(body[at+1:], "%d+%d.n%d", &start, &dur, &node); err != nil {
				return s, fmt.Errorf("explore: bad fault %q: %v", p, err)
			}
			s.Faults = append(s.Faults, FaultPoint{Kind: kind, At: sim.Time(start), Dur: sim.Time(dur), Node: node})
		case 'c':
			var ev int
			var by int64
			if _, err := fmt.Sscanf(body, "%d+%d", &ev, &by); err != nil {
				return s, fmt.Errorf("explore: bad shift %q: %v", p, err)
			}
			s.Shifts = append(s.Shifts, Shift{Event: ev, By: sim.Time(by)})
		default:
			return s, fmt.Errorf("explore: unknown decision %q in %q", p, tok)
		}
	}
	return s, nil
}
