//go:build !race

package chaos_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own, so this is left
// out of -race builds).

// MatchSwitch runs on every link traversal a rule sees, so reading the
// labels it compares must allocate nothing: on a host's cable, where one
// end is a host, and on a trunk between two switches.
func TestAllocMatchSwitch(t *testing.T) {
	n := fabric.New(sim.NewEngine(), fabric.DefaultLinkParams())
	leaf, spine := n.AddSwitch("leaf0"), n.AddSwitch("spine0")
	_, hostUp, _ := n.AddHost(0, leaf)
	trunk, _ := n.Connect(leaf, spine)
	match := chaos.MatchSwitch("spine0")
	for _, c := range []struct {
		name string
		l    *fabric.Link
		want bool
	}{{"host link", hostUp, false}, {"switch link", trunk, true}} {
		if got := match(nil, c.l); got != c.want {
			t.Fatalf("%s %v: MatchSwitch(spine0) = %v, want %v", c.name, c.l, got, c.want)
		}
		if a := testing.AllocsPerRun(100, func() { match(nil, c.l) }); a != 0 {
			t.Errorf("%s: MatchSwitch allocates %.1f objects per traversal, want 0", c.name, a)
		}
	}
}
