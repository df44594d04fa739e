// Package chaos is a deterministic, scenario-scripted fault-injection
// subsystem for the simulated Myrinet/GM stack. It layers named, scheduled
// fault rules over the fabric's injection hooks (fabric.DropFn for loss,
// plus the DupFn duplication and DelayFn reordering hooks) and the NIC's
// Pause/Resume firmware-reload hook, then drives measurement campaigns
// that assert a reliability invariant set after every run: each receiver
// got every byte exactly once and in order, sender buffers were fully
// released, no lanai packet buffers or retransmit timers leaked, and the
// fabric's packet accounting balances. One runner (Run, RunOnce) serves
// every campaign; what runs under the faults is a Workload — the
// multicast stream, rounds of NIC collectives, or the stream under
// membership churn — which supplies only its own set-up, traffic and
// invariant.
//
// Everything is deterministic: rules draw randomness from a private RNG
// seeded per scenario, so two campaigns with the same seed produce
// byte-identical results — the property that lets a recovery-path bug be
// pinned to the exact scenario that exposed it.
package chaos

import (
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/lanai"
	"repro/internal/sim"
)

// Match selects the packets/link traversals a rule applies to.
type Match func(p *fabric.Packet, l *fabric.Link) bool

// MatchAll applies a rule to every traversal.
func MatchAll(*fabric.Packet, *fabric.Link) bool { return true }

// MatchNode matches packets sourced by or destined to one node — dropping
// them isolates the node from the fabric.
func MatchNode(id fabric.NodeID) Match {
	return func(p *fabric.Packet, _ *fabric.Link) bool {
		return p.Src == id || p.Dst == id
	}
}

// MatchHostLink matches traversals of the links attaching one host (either
// direction) — a cable fault rather than a node fault.
func MatchHostLink(id fabric.NodeID) Match {
	return func(_ *fabric.Packet, l *fabric.Link) bool { return l.Touches(id) }
}

// MatchSwitch matches traversals of any link touching the named switch
// vertex (e.g. "xbar0") — a crossbar failure.
func MatchSwitch(label string) Match {
	return func(_ *fabric.Packet, l *fabric.Link) bool {
		return l.FromLabel() == label || l.ToLabel() == label
	}
}

// MatchData matches data-bearing frames (unicast and multicast),
// leaving control traffic untouched.
func MatchData(p *fabric.Packet, _ *fabric.Link) bool {
	k, ok := gm.KindOf(p)
	return ok && (k == gm.KindData || k == gm.KindMcastData)
}

// MatchAcks matches acknowledgment and nack frames — losing these
// exercises the duplicate-detection and re-ack paths.
func MatchAcks(p *fabric.Packet, _ *fabric.Link) bool {
	k, ok := gm.KindOf(p)
	return ok && (k == gm.KindAck || k == gm.KindMcastAck || k == gm.KindNack || k == gm.KindMcastNack)
}

// window is a half-open activity interval [from, until); until zero means
// no end.
type window struct{ from, until sim.Time }

func (w window) contains(t sim.Time) bool {
	return t >= w.from && (w.until == 0 || t < w.until)
}

// dropRule drops matched traversals inside its window, always (prob 1) or
// stochastically; step, when non-nil, replaces the probability with a
// stateful per-traversal decision (Gilbert–Elliott).
type dropRule struct {
	name  string
	win   window
	match Match
	prob  float64
	step  func() bool
	hits  atomic.Uint64
}

// dupRule duplicates every nth matched packet inside its window.
type dupRule struct {
	name  string
	win   window
	match Match
	every int
	seen  int
	hits  atomic.Uint64
}

// delayRule holds back every nth matched packet by delay — bounded
// reordering: the held packet arrives after later ones overtake it.
type delayRule struct {
	name  string
	win   window
	match Match
	every int
	delay sim.Time
	seen  int
	hits  atomic.Uint64
}

// Injector owns a fabric's fault-injection hooks. Create one per cluster
// with NewInjector; add rules before (or during) the run.
type Injector struct {
	net *fabric.Network
	eng *sim.Engine
	rng *sim.RNG

	drops  []*dropRule
	dups   []*dupRule
	delays []*delayRule
}

// NewInjector installs a fresh injector as the fabric's DropFn, DupFn, and
// DelayFn. seed feeds the injector's private randomness (stochastic rules),
// independent of the cluster's RNG so adding a rule never perturbs
// unrelated stochastic behaviour.
func NewInjector(net *fabric.Network, seed int64) *Injector {
	inj := &Injector{net: net, eng: net.Engine(), rng: sim.NewRNG(seed)}
	net.DropFn = inj.drop
	net.DupFn = inj.dup
	net.DelayFn = inj.delay
	return inj
}

// DropWindow drops every matched traversal inside [from, until).
func (in *Injector) DropWindow(name string, from, until sim.Time, match Match) {
	in.drops = append(in.drops, &dropRule{
		name: name, win: window{from, until}, match: match, prob: 1,
	})
}

// DropProb drops matched traversals with the given probability inside
// [from, until) (until 0 = forever).
func (in *Injector) DropProb(name string, from, until sim.Time, prob float64, match Match) {
	if prob < 1 && in.net.Shards() > 1 {
		panic(fabric.ErrShardsStateful)
	}
	in.drops = append(in.drops, &dropRule{
		name: name, win: window{from, until}, match: match, prob: prob,
	})
}

// GilbertElliott installs the classic two-state burst-loss channel over
// matched traversals: a good state with light loss and a bad state with
// heavy loss, with per-traversal transition probabilities pGoodBad and
// pBadGood. One state machine covers all matched links, which correlates
// losses across a burst the way a real interference event does.
func (in *Injector) GilbertElliott(name string, pGoodBad, pBadGood, lossGood, lossBad float64, match Match) {
	if in.net.Shards() > 1 {
		panic(fabric.ErrShardsStateful)
	}
	bad := false
	step := func() bool {
		if bad {
			if in.rng.Bernoulli(pBadGood) {
				bad = false
			}
		} else if in.rng.Bernoulli(pGoodBad) {
			bad = true
		}
		if bad {
			return in.rng.Bernoulli(lossBad)
		}
		return in.rng.Bernoulli(lossGood)
	}
	in.drops = append(in.drops, &dropRule{
		name: name, win: window{}, match: match, step: step,
	})
}

// Duplicate delivers a second copy of every nth matched packet inside
// [from, until).
func (in *Injector) Duplicate(name string, from, until sim.Time, every int, match Match) {
	if in.net.Shards() > 1 {
		// Even every=1 duplication is off-limits sharded: the fabric's
		// duplicate-delivery closure cannot cross a shard boundary.
		panic(fabric.ErrShardsStateful)
	}
	if every < 1 {
		every = 1
	}
	in.dups = append(in.dups, &dupRule{
		name: name, win: window{from, until}, match: match, every: every,
	})
}

// Reorder holds every nth matched packet back by delay inside [from,
// until), letting later packets overtake it — bounded reordering.
func (in *Injector) Reorder(name string, from, until sim.Time, every int, delay sim.Time, match Match) {
	if every > 1 && in.net.Shards() > 1 {
		panic(fabric.ErrShardsStateful)
	}
	if every < 1 {
		every = 1
	}
	in.delays = append(in.delays, &delayRule{
		name: name, win: window{from, until}, match: match, every: every, delay: delay,
	})
}

// PauseNIC schedules a firmware reload on hw: the NIC goes deaf at from
// and recovers at until. The events go to the NIC's own engine under its
// node's key domain, so the reload lands identically on serial and sharded
// clusters.
func (in *Injector) PauseNIC(hw *lanai.NIC, from, until sim.Time) {
	dom := in.net.HostDomain(hw.ID)
	hw.Eng.AtDomain(dom, from, hw.Pause)
	hw.Eng.AtDomain(dom, until, hw.Resume)
}

// RuleHits reports per-rule activation counts in rule-installation order,
// for the campaign report.
func (in *Injector) RuleHits() []RuleHit {
	var out []RuleHit
	for _, r := range in.drops {
		out = append(out, RuleHit{Name: r.name, Kind: "drop", Hits: r.hits.Load()})
	}
	for _, r := range in.dups {
		out = append(out, RuleHit{Name: r.name, Kind: "dup", Hits: r.hits.Load()})
	}
	for _, r := range in.delays {
		out = append(out, RuleHit{Name: r.name, Kind: "delay", Hits: r.hits.Load()})
	}
	return out
}

// RuleHit is one rule's activation count.
type RuleHit struct {
	Name string
	Kind string
	Hits uint64
}

// drop implements fabric.DropFn over the installed rules. Stochastic
// rules consume randomness only when their window and match apply, so
// adding an inert rule never shifts another rule's stream.
// Hooks read the clock of the shard that owns the link (LinkNow): within a
// synchronization window the shards' clocks legitimately differ, and the
// traversal's own shard is the only one whose time is meaningful here.
func (in *Injector) drop(p *fabric.Packet, l *fabric.Link) bool {
	now := in.net.LinkNow(l)
	for _, r := range in.drops {
		if !r.win.contains(now) || !r.match(p, l) {
			continue
		}
		lost := false
		switch {
		case r.step != nil:
			lost = r.step()
		case r.prob >= 1:
			lost = true
		default:
			lost = in.rng.Bernoulli(r.prob)
		}
		if lost {
			r.hits.Add(1)
			return true
		}
	}
	return false
}

// dup implements fabric.DupFn over the installed rules.
func (in *Injector) dup(p *fabric.Packet, l *fabric.Link) bool {
	now := in.net.LinkNow(l)
	for _, r := range in.dups {
		if !r.win.contains(now) || !r.match(p, l) {
			continue
		}
		r.seen++
		if r.seen%r.every == 0 {
			r.hits.Add(1)
			return true
		}
	}
	return false
}

// delay implements fabric.DelayFn over the installed rules; concurrent
// rules add up.
func (in *Injector) delay(p *fabric.Packet, l *fabric.Link) sim.Time {
	now := in.net.LinkNow(l)
	var total sim.Time
	for _, r := range in.delays {
		if !r.win.contains(now) || !r.match(p, l) {
			continue
		}
		if r.every == 1 {
			// Stateless fast path — the form permitted on sharded fabrics.
			r.hits.Add(1)
			total += r.delay
			continue
		}
		r.seen++
		if r.seen%r.every == 0 {
			r.hits.Add(1)
			total += r.delay
		}
	}
	return total
}
