package myrinet

// Tests for the fault-injection hooks (DupFn duplication, DelayFn
// reordering) and the fail-fast loss-rate validation.

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSetLossRateValidation(t *testing.T) {
	eng := sim.NewEngine()
	n := NewSingleSwitch(eng, 2, DefaultLinkParams())

	if err := n.SetLossRate(0.1); !errors.Is(err, fabric.ErrLossRateWithoutRNG) {
		t.Fatalf("loss without RNG accepted: err=%v, want ErrLossRateWithoutRNG", err)
	}
	if err := n.SetLossRate(0); err != nil {
		t.Fatalf("zero loss rate without RNG rejected: %v", err)
	}
	n.SetRNG(sim.NewRNG(1))
	for _, bad := range []float64{-0.1, 1.5} {
		if err := n.SetLossRate(bad); !errors.Is(err, fabric.ErrBadLossRate) {
			t.Fatalf("loss rate %v accepted: err=%v, want ErrBadLossRate", bad, err)
		}
	}
	if err := n.SetLossRate(0.5); err != nil {
		t.Fatalf("valid loss rate rejected: %v", err)
	}
}

// TestDupFnDeliversTwiceAndBalances checks the duplication hook: the
// matched packet arrives twice, and the conservation identity the chaos
// campaigns assert (injected + duplicated == delivered + dropped) holds.
func TestDupFnDeliversTwiceAndBalances(t *testing.T) {
	eng, n := testNet(t, 2)
	reg := metrics.New()
	n.SetMetrics(reg)
	log := attach(n)
	n.DupFn = func(p *fabric.Packet, l *fabric.Link) bool { return true }
	eng.At(0, func() { n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 1000}) })
	eng.Run()
	if len(*log) != 2 {
		t.Fatalf("duplicated packet delivered %d times, want 2", len(*log))
	}
	if (*log)[0].at >= (*log)[1].at {
		t.Fatalf("duplicate at %v not after original at %v", (*log)[1].at, (*log)[0].at)
	}
	s := reg.Snapshot()
	injected := counter(t, s, fabric.Component, metrics.NodeFabric, "injected")
	duplicated := counter(t, s, fabric.Component, metrics.NodeFabric, "duplicated")
	delivered := counter(t, s, fabric.Component, metrics.NodeFabric, "delivered")
	dropped := counter(t, s, fabric.Component, metrics.NodeFabric, "dropped")
	if injected != 1 || duplicated != 1 || delivered != 2 || dropped != 0 {
		t.Fatalf("accounting injected=%d duplicated=%d delivered=%d dropped=%d, want 1/1/2/0",
			injected, duplicated, delivered, dropped)
	}
}

// TestDelayFnReordersPackets checks the reordering hook: holding the first
// packet back lets the second overtake it on the final hop.
func TestDelayFnReordersPackets(t *testing.T) {
	eng, n := testNet(t, 2)
	log := attach(n)
	first := true
	n.DelayFn = func(p *fabric.Packet, l *fabric.Link) sim.Time {
		if first {
			first = false
			return 50 * sim.Microsecond
		}
		return 0
	}
	eng.At(0, func() {
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 1000, Payload: "a"})
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 1000, Payload: "b"})
	})
	eng.Run()
	if len(*log) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(*log))
	}
	if (*log)[0].pkt.Payload != "b" || (*log)[1].pkt.Payload != "a" {
		t.Fatalf("delivery order [%v %v], want [b a] (held packet overtaken)",
			(*log)[0].pkt.Payload, (*log)[1].pkt.Payload)
	}
}
