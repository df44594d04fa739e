package gm

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/metrics"
	"repro/internal/sim"
)

type trafficPlan struct {
	src, dst, size int
}

// Property: any workload of random message sizes, from random senders to
// random receivers, over a fabric with or without loss, delivers every
// message intact and in per-sender order.
func TestRandomTrafficIntegrityProperty(t *testing.T) {
	f := func(raw []uint16, seed int64, lossy bool) bool {
		const nodes = 4
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		var plans []trafficPlan
		for i, r := range raw {
			src := int(r) % nodes
			dst := (src + 1 + int(r>>3)%(nodes-1)) % nodes
			plans = append(plans, trafficPlan{src, dst, (int(r)*7%9000 + i)})
		}
		payloadFor := func(pl trafficPlan, i int) []byte {
			msg := make([]byte, pl.size)
			for j := range msg {
				msg[j] = byte(j*31 + pl.src + i)
			}
			return msg
		}

		eng := sim.NewEngine()
		net := fabric.SingleSwitch(eng, nodes, fabric.DefaultLinkParams())
		if lossy {
			net.SetRNG(sim.NewRNG(seed))
			net.LossRate = 0.02
		}
		cfg := DefaultConfig()
		var ports []*Port
		for i := 0; i < nodes; i++ {
			hw := lanai.New(eng, net.Iface(fabric.NodeID(i)), lanai.DefaultParams())
			ports = append(ports, NewNIC(hw, cfg).OpenPort(1))
		}

		// expected[dst][src] is the FIFO of payloads dst must see from src.
		expected := make(map[int]map[int][][]byte)
		counts := make(map[int]int)
		for i, pl := range plans {
			if expected[pl.dst] == nil {
				expected[pl.dst] = make(map[int][][]byte)
			}
			expected[pl.dst][pl.src] = append(expected[pl.dst][pl.src], payloadFor(pl, i))
			counts[pl.dst]++
		}

		ok := true
		for d := 0; d < nodes; d++ {
			d := d
			n := counts[d]
			if n == 0 {
				continue
			}
			eng.Spawn("recv", func(p *sim.Proc) {
				ports[d].ProvideN(n, 1<<14)
				for i := 0; i < n; i++ {
					ev := ports[d].Recv(p)
					q := expected[d][int(ev.Src)]
					if len(q) == 0 || !bytes.Equal(ev.Data, q[0]) {
						ok = false
						continue
					}
					expected[d][int(ev.Src)] = q[1:]
				}
			})
		}
		for s := 0; s < nodes; s++ {
			s := s
			var mine [][]byte
			var dsts []int
			for i, pl := range plans {
				if pl.src == s {
					mine = append(mine, payloadFor(pl, i))
					dsts = append(dsts, pl.dst)
				}
			}
			if len(mine) == 0 {
				continue
			}
			eng.Spawn("send", func(p *sim.Proc) {
				for i := range mine {
					ports[s].Send(p, fabric.NodeID(dsts[i]), 1, mine[i])
				}
				for range mine {
					ports[s].WaitSendDone(p)
				}
			})
		}
		eng.Run()
		stalled := eng.LiveProcs() != 0
		eng.Kill()
		// Every expected queue drained.
		for _, per := range expected {
			for _, q := range per {
				if len(q) != 0 {
					ok = false
				}
			}
		}
		return ok && !stalled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fabric conserves packets — everything injected is either
// delivered or counted as dropped once the simulation drains.
func TestPacketConservationProperty(t *testing.T) {
	f := func(raw []uint8, seed int64) bool {
		const nodes = 5
		eng := sim.NewEngine()
		net := fabric.SingleSwitch(eng, nodes, fabric.DefaultLinkParams())
		reg := metrics.New()
		net.SetMetrics(reg)
		net.SetRNG(sim.NewRNG(seed))
		net.LossRate = 0.1
		delivered := uint64(0)
		for i := 0; i < nodes; i++ {
			net.Iface(fabric.NodeID(i)).Deliver = func(p *fabric.Packet) { delivered++ }
		}
		eng.At(0, func() {
			for i, r := range raw {
				src := fabric.NodeID(int(r) % nodes)
				dst := fabric.NodeID((int(r) + 1 + i) % nodes)
				if src == dst {
					continue
				}
				net.Iface(src).Inject(&fabric.Packet{Src: src, Dst: dst, Size: int(r) + 1})
			}
		})
		eng.Run()
		snap := reg.Snapshot()
		injected := counter(t, snap, fabric.Component, metrics.NodeFabric, "injected")
		fabDelivered := counter(t, snap, fabric.Component, metrics.NodeFabric, "delivered")
		dropped := counter(t, snap, fabric.Component, metrics.NodeFabric, "dropped")
		return injected == fabDelivered+dropped && fabDelivered == delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
