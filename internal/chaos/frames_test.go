package chaos_test

import (
	"testing"

	"repro/internal/chaos"
)

// Pooled frames under every way the fabric can lose track of a packet: it
// drops some (the drop ends the packet's hold while the send record still
// has the frame), duplicates some (the copy pins the frame, which then never
// returns to a pool) and holds some back past their successors (the
// packet's hold keeps the frame alive until its late delivery). Multicast
// and collective traffic must still arrive exactly once, in order and
// intact, with every resource returned; under -race a frame recycled while
// a packet or a holder still had it panics at the NIC that next touches it.
func TestFramesSurviveLossDuplicatesAndReorder(t *testing.T) {
	sc := chaos.Scenario{
		Name:  "frames-loss-dup-reorder",
		Desc:  "random loss on every link, every 3rd packet duplicated, every 4th held back",
		Nacks: true,
		Inject: func(f *chaos.Fault) {
			f.Inj.DropProb("loss", 0, 0, 0.02, chaos.MatchAll)
			f.Inj.Duplicate("dup3", 0, 0, 3, chaos.MatchAll)
			f.Inj.Reorder("hold4", 0, 0, 4, f.At(0.02), chaos.MatchAll)
		},
	}
	for _, c := range []campaign{multicast(), collective()} {
		t.Run(c.name, func(t *testing.T) {
			res := chaos.Run(c.w, sc, testConfig())
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Pass {
				t.Fatalf("the %s workload failed the invariant checker", c.name)
			}
			if res.Drops == 0 {
				t.Error("no packet was lost")
			}
			for _, r := range res.Rules {
				if r.Hits == 0 {
					t.Errorf("rule %s never fired", r.Name)
				}
			}
		})
	}
}
