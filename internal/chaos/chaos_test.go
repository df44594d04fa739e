package chaos_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// campaign is one row of the tables below: a workload at its test shape,
// its scenario library, its most stochastic scenario (a Gilbert–Elliott
// channel) and one built only from stateless rules.
type campaign struct {
	name       string
	w          chaos.Workload
	lib        []chaos.Scenario
	stochastic string
	stateless  string
}

func campaigns() []campaign {
	return []campaign{
		{"multicast", chaos.Multicast{Msgs: 10, Size: 10000}, chaos.Library(), "burst-loss", "root-link-outage"},
		{"coll", chaos.Collective{Rounds: 4, Veclen: 4}, chaos.CollLibrary(), "coll-bursty-links", "coll-barrier-burst-loss"},
		{"member", chaos.Churn{Msgs: 16, Size: 4096, Transitions: 10}, chaos.MemberLibrary(), "churn-under-loss", "churn-coordinator-outage"},
	}
}

// The rows by name, for the tests that belong to one workload.
func multicast() campaign  { return campaigns()[0] }
func collective() campaign { return campaigns()[1] }
func churn() campaign      { return campaigns()[2] }

func testConfig() chaos.Config { return chaos.Config{Nodes: 8, Seed: 7} }

// find is chaos.Find that fails the test on a miss.
func find(t *testing.T, lib []chaos.Scenario, name string) chaos.Scenario {
	t.Helper()
	sc, ok := chaos.Find(lib, name)
	if !ok {
		t.Fatalf("scenario %s missing from library", name)
	}
	return sc
}

// requireLibraryPasses runs every scenario of c's library, one subtest
// each, through the full invariant checker; check, when non-nil, looks at
// each passing result.
func requireLibraryPasses(t *testing.T, c campaign, cfg chaos.Config, check func(*testing.T, chaos.Result)) {
	for _, sc := range c.lib {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := chaos.Run(c.w, sc, cfg)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("%s scenario %s failed the invariant checker", c.name, sc.Name)
			}
			if check != nil {
				check(t, res)
			}
		})
	}
}

// TestLibraryScenariosPass runs every multicast scenario through the full
// invariant checker: exactly-once in-order delivery at every receiver,
// all buffers and tokens returned, no leaked timers, balanced fabric
// accounting.
func TestLibraryScenariosPass(t *testing.T) {
	c := multicast()
	if len(c.lib) < 8 {
		t.Fatalf("scenario library has %d scenarios, want at least 8", len(c.lib))
	}
	requireLibraryPasses(t, c, testConfig(), nil)
}

// TestScenariosActuallyInject guards against a library scenario whose
// fault window silently misses the traffic — a pass proves nothing if no
// fault ever engaged. The burst channel in particular must cost packets.
func TestScenariosActuallyInject(t *testing.T) {
	for _, c := range campaigns() {
		t.Run(c.name, func(t *testing.T) {
			for _, sc := range c.lib {
				if sc.Inject == nil {
					continue // the fault-free churn reference
				}
				res := chaos.Run(c.w, sc, testConfig())
				var ruleHits uint64
				for _, r := range res.Rules {
					ruleHits += r.Hits
				}
				if ruleHits+res.PausedDrops == 0 {
					t.Errorf("scenario %s: no fault rule ever fired (window misses the traffic?)", sc.Name)
				}
				if sc.Name == c.stochastic && res.Drops == 0 {
					t.Errorf("scenario %s dropped nothing — the burst channel missed the run", sc.Name)
				}
			}
		})
	}
}

// TestScenarioRecoveryCost checks that a disruptive outage actually costs
// recovery time relative to the clean baseline — the recovery-latency
// column is measuring something real.
func TestScenarioRecoveryCost(t *testing.T) {
	c := multicast()
	res := chaos.Run(c.w, find(t, c.lib, "interior-kill"), testConfig())
	if !res.Pass {
		t.Fatalf("interior-kill failed: %v", res.Violations)
	}
	if res.Drops == 0 {
		t.Fatal("interior-kill dropped nothing")
	}
	if res.Recovery <= 0 {
		t.Fatalf("interior-kill recovery latency %v, want > 0 (clean %v, faulted %v)",
			res.Recovery, res.CleanFinish, res.Finish)
	}
	if res.Retransmits == 0 {
		t.Fatal("interior-kill recovered without retransmits — fault never bit")
	}
}

// TestScenarioDeterminism runs each workload's most stochastic scenario
// twice with the same seed and requires identical results, faults and
// all, and a third time with another seed to show the seed actually steers
// the fault stream.
func TestScenarioDeterminism(t *testing.T) {
	for _, c := range campaigns() {
		t.Run(c.name, func(t *testing.T) {
			sc := find(t, c.lib, c.stochastic)
			a := chaos.Run(c.w, sc, testConfig())
			b := chaos.Run(c.w, sc, testConfig())
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
			}
			cfg := testConfig()
			cfg.Seed = 9
			other := chaos.Run(c.w, sc, cfg)
			if other.Drops == a.Drops && other.Finish == a.Finish {
				t.Fatalf("different seeds produced identical drop count %d and finish %v — seed ignored",
					a.Drops, a.Finish)
			}
		})
	}
}

// TestDegenerateTreeFallback exercises the InteriorNode fallback on a
// cluster too small to have interior nodes.
func TestDegenerateTreeFallback(t *testing.T) {
	c := multicast()
	cfg := testConfig()
	cfg.Nodes = 2 // root plus one leaf: no interior nodes exist
	res := chaos.Run(c.w, find(t, c.lib, "interior-kill"), cfg)
	if !res.Pass {
		t.Fatalf("interior-kill on 2 nodes failed: %v", res.Violations)
	}
}

// TestBaselineCleanRun pins the fault-free path of every workload: a nil
// Inject must pass with zero fault traffic and zero recovery latency.
func TestBaselineCleanRun(t *testing.T) {
	for _, c := range campaigns() {
		t.Run(c.name, func(t *testing.T) {
			res := chaos.Run(c.w, chaos.Scenario{Name: "baseline"}, testConfig())
			if !res.Pass {
				t.Fatalf("baseline failed: %v", res.Violations)
			}
			if res.Drops != 0 || res.Dups != 0 || res.Retransmits != 0 {
				t.Fatalf("baseline saw fault traffic: drops=%d dups=%d retransmits=%d",
					res.Drops, res.Dups, res.Retransmits)
			}
			if res.Recovery != 0 {
				t.Fatalf("baseline recovery latency %v, want 0", res.Recovery)
			}
		})
	}
}

// TestShardedStatelessEqualsSerial extends the reproducibility contract to
// the parallel engine, for every workload: a scenario built from stateless
// rules returns on two shards the very Result the serial engine returns,
// and a stochastic one is refused at install time instead of silently
// diverging.
func TestShardedStatelessEqualsSerial(t *testing.T) {
	for _, c := range campaigns() {
		t.Run(c.name, func(t *testing.T) {
			sharded := testConfig()
			sharded.Shards = 2

			sc := find(t, c.lib, c.stateless)
			want := chaos.Run(c.w, sc, testConfig())
			got := chaos.Run(c.w, sc, sharded)
			if !got.Pass {
				t.Fatalf("sharded %s failed: %v", sc.Name, got.Violations)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sharded %s diverged from serial:\n%+v\nvs\n%+v", sc.Name, got, want)
			}

			defer func() {
				if err, _ := recover().(error); !errors.Is(err, fabric.ErrShardsStateful) {
					t.Fatalf("stochastic %s on a sharded cluster: recovered %v, want a panic with fabric.ErrShardsStateful",
						c.stochastic, err)
				}
			}()
			chaos.Run(c.w, find(t, c.lib, c.stochastic), sharded)
		})
	}
}

// TestUnusablePlanBuildsNoCluster: a workload that cannot plan its run
// says so as the run's one violation, before a cluster exists — the shared
// registry, which a faulted run's cluster would have registered its
// instruments in, stays empty.
func TestUnusablePlanBuildsNoCluster(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = chaos.Churn{}.MinNodes() - 1
	cfg.Metrics = metrics.New()
	res := chaos.Run(chaos.Churn{}, chaos.MemberLibrary()[0], cfg)
	if res.Pass || len(res.Violations) != 2 || !strings.Contains(res.Violations[1], "at least 3 nodes") {
		t.Fatalf("2-node churn run: pass=%v violations=%q, want the plan's complaint once per run", res.Pass, res.Violations)
	}
	if comps := cfg.Metrics.Snapshot().Components(); len(comps) != 0 {
		t.Fatalf("a cluster was built before the plan failed: registry holds %v", comps)
	}
}

// TestDeadlineFailureDetected proves the checker can fail: a permanent
// outage of a receiver must be reported as a missed deadline, not papered
// over.
func TestDeadlineFailureDetected(t *testing.T) {
	sc := chaos.Scenario{
		Name: "permanent-kill",
		Inject: func(f *chaos.Fault) {
			f.Inj.DropWindow("forever", 100*sim.Microsecond, 0, chaos.MatchNode(f.LeafNode()))
		},
	}
	cfg := testConfig()
	cfg.Deadline = 20 * sim.Millisecond // keep the doomed run short
	res := chaos.Run(multicast().w, sc, cfg)
	if res.Pass {
		t.Fatal("permanently-isolated receiver still passed the invariant checker")
	}
}
