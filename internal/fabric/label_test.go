package fabric

import (
	"testing"

	"repro/internal/sim"
)

// Labels are built without fmt; a host's still reads "host<id>" from both
// ends of its cable.
func TestHostLinkLabels(t *testing.T) {
	n := SingleSwitch(sim.NewEngine(), 4, DefaultLinkParams())
	up := n.Iface(3).Uplink()
	if got := up.String(); got != "host3->xbar0" {
		t.Errorf("host 3's uplink reads %q, want host3->xbar0", got)
	}
	if up.FromLabel() != "host3" || up.ToLabel() != "xbar0" {
		t.Errorf("host 3's uplink runs %q -> %q, want host3 -> xbar0", up.FromLabel(), up.ToLabel())
	}
	for id, want := range map[NodeID]string{0: "host0", 10: "host10", 16383: "host16383"} {
		if got := hostLabel(id); got != want {
			t.Errorf("hostLabel(%d) = %q, want %q", id, got, want)
		}
	}
}
