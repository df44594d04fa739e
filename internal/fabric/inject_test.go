package fabric_test

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/myrinet"
	"repro/internal/sim"
)

// pairFabric is a 64-host two-level Myrinet Clos on one or two shards, its
// engines stepped by hand in lookahead-wide windows, so a wave of packets
// runs to the end without the coordinator's goroutines.
type pairFabric struct {
	net       *fabric.Network
	engs      []*sim.Engine
	delivered int
}

func newPairFabric(shards int) *pairFabric {
	const hosts = 64
	engs := []*sim.Engine{sim.NewEngine()}
	net := myrinet.NewClos(engs[0], hosts, myrinet.DefaultRadix, myrinet.DefaultLinkParams())
	for len(engs) < shards {
		engs = append(engs, sim.NewEngine())
	}
	net.ApplyPlan(net.Partition(shards), engs)
	f := &pairFabric{net: net, engs: engs}
	for i := 0; i < hosts; i++ {
		net.Iface(fabric.NodeID(i)).Deliver = func(*fabric.Packet) { f.delivered++ }
	}
	return f
}

// wave sends copies packets from every host to the host offset places on
// and runs until each is delivered, leaving every shard's clock at the
// last delivery.
func (f *pairFabric) wave(offset, copies int) {
	hosts := f.net.Hosts()
	for s := 0; s < hosts; s++ {
		p := fabric.Packet{Src: fabric.NodeID(s), Dst: fabric.NodeID((s + offset) % hosts), Size: 64}
		for c := 0; c < copies; c++ {
			f.net.Iface(p.Src).Inject(&p)
		}
	}
	for {
		next, pending := sim.Time(0), false
		for _, e := range f.engs {
			if t, ok := e.NextEventTime(); ok && (!pending || t < next) {
				next, pending = t, true
			}
		}
		if !pending {
			break
		}
		for _, e := range f.engs {
			e.RunBefore(next + f.net.Lookahead())
		}
		f.net.DrainCross()
	}
	var now sim.Time
	for _, e := range f.engs {
		now = max(now, e.Now())
	}
	for _, e := range f.engs {
		e.RunUntil(now)
	}
}

// BenchmarkInjectDistinctPairs sends one packet between every ordered pair
// of hosts per op, each pair's route computed as its packet is injected
// (and again where a hop crosses to the other shard).
func BenchmarkInjectDistinctPairs(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			f := newPairFabric(shards)
			hosts := f.net.Hosts()
			f.wave(1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for offset := 1; offset < hosts; offset++ {
					f.wave(offset, 1)
				}
			}
			if want := (1 + b.N*(hosts-1)) * hosts; f.delivered != want {
				b.Fatalf("delivered %d packets, want %d", f.delivered, want)
			}
		})
	}
}
