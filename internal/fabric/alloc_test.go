//go:build !race

package fabric

import (
	"testing"

	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own, so this is left
// out of -race builds).

// A warm Inject → Deliver round trip allocates nothing: the packet is built
// on the caller's stack and copied into a pooled traversal record, and the
// pointer Deliver sees is into that record.
func TestAllocInjectDeliverIsFree(t *testing.T) {
	eng := sim.NewEngine()
	n := SingleSwitch(eng, 2, DefaultLinkParams())
	got, payload := 0, any("frame")
	n.Iface(1).Deliver = func(p *Packet) {
		if p.Src == 0 && p.Size == 256 && p.Payload == payload {
			got++
		}
	}
	txDone := func() {}
	trip := func() {
		pkt := Packet{Src: 0, Dst: 1, Size: 256, Payload: payload, TxDone: txDone}
		n.Iface(0).Inject(&pkt)
		eng.Run()
	}
	trip() // the route cache, the event arena and the transit pool exist now
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Errorf("a warm Inject → Deliver round trip allocates %.1f objects, want 0", allocs)
	}
	if got != 202 {
		t.Errorf("delivered %d intact packets, want 202", got)
	}
}
