//go:build race

package fabric

import (
	"testing"

	"repro/internal/sim"
)

// The negative control for the "valid only during the call" rule: a Deliver
// callback and a fault hook that keep the *Packet see the sentinel as soon
// as the delivery is over, not the packet they were shown (and not, later,
// whichever packet reuses the traversal record).
func TestRetainedPacketIsScrubbed(t *testing.T) {
	eng := sim.NewEngine()
	n := SingleSwitch(eng, 2, DefaultLinkParams())
	var delivered, delayed *Packet
	n.Iface(1).Deliver = func(p *Packet) {
		if p.Payload != "hello" {
			t.Errorf("Deliver saw %+v during the call", *p)
		}
		delivered = p
	}
	n.DelayFn = func(p *Packet, _ *Link) sim.Time {
		delayed = p
		return 0
	}
	eng.At(0, func() {
		n.Iface(0).Inject(&Packet{Src: 0, Dst: 1, Size: 64, Payload: "hello"})
	})
	eng.Run()
	for name, p := range map[string]*Packet{"Deliver": delivered, "DelayFn": delayed} {
		if p == nil {
			t.Fatalf("%s never ran", name)
		}
		if _, ok := p.Payload.(scrubbed); !ok || p.Src != -1 || p.Dst != -1 || p.Size != -1 {
			t.Errorf("the pointer %s kept reads %+v after the delivery, want the sentinel", name, *p)
		}
	}
}
