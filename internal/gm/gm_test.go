package gm

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// rig is a small GM test cluster.
type rig struct {
	eng   *sim.Engine
	net   *fabric.Network
	reg   *metrics.Registry
	nics  []*NIC
	ports []*Port
}

func newRig(t testing.TB, nodes int, mut func(*Config)) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, nodes, fabric.DefaultLinkParams())
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	r := &rig{eng: eng, net: net, reg: metrics.New()}
	for i := 0; i < nodes; i++ {
		hw := lanai.New(eng, net.Iface(fabric.NodeID(i)), lanai.DefaultParams())
		hw.SetMetrics(r.reg)
		nic := NewNIC(hw, cfg)
		r.nics = append(r.nics, nic)
		r.ports = append(r.ports, nic.OpenPort(1))
	}
	return r
}

// counter reads one counter out of a snapshot. A key no instrument reports
// fails the test, so a misspelled name cannot pass as a zero count.
func counter(t testing.TB, s metrics.Snapshot, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}

// counter reads one of node's gm counters.
func (r *rig) counter(t testing.TB, node int, name string) uint64 {
	t.Helper()
	return counter(t, r.reg.Snapshot(), Component, node, name)
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	r.eng.Run()
	r.eng.Kill()
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func TestUnicastSmallMessage(t *testing.T) {
	r := newRig(t, 2, nil)
	msg := pattern(64)
	var got []byte
	var at sim.Time
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(1 << 14)
		ev := r.ports[1].Recv(p)
		got = ev.Data
		at = p.Now()
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %d bytes, mismatch with sent %d", len(got), len(msg))
	}
	// One-way small-message latency should land in GM territory (5–12 µs).
	us := at.Micros()
	if us < 4 || us > 15 {
		t.Fatalf("one-way latency %.2fµs outside GM-era envelope [4,15]", us)
	}
}

func TestUnicastLargeMessageMultiPacket(t *testing.T) {
	r := newRig(t, 2, nil)
	msg := pattern(3*4096 + 123) // four packets
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(1 << 16)
		got = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if !bytes.Equal(got, msg) {
		t.Fatal("multi-packet message corrupted")
	}
	if sent := r.counter(t, 0, "data_sent"); sent != 4 {
		t.Fatalf("sent %d packets, want 4", sent)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	r := newRig(t, 2, nil)
	delivered := false
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(64)
		ev := r.ports[1].Recv(p)
		delivered = true
		if len(ev.Data) != 0 {
			t.Errorf("zero-length message delivered %d bytes", len(ev.Data))
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, nil)
	})
	r.run(t)
	if !delivered {
		t.Fatal("zero-length message never delivered")
	}
}

func TestMessagesDeliveredInOrder(t *testing.T) {
	r := newRig(t, 2, nil)
	const count = 20
	var order []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(count, 256)
		for i := 0; i < count; i++ {
			ev := r.ports[1].Recv(p)
			order = append(order, ev.Data[0])
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r.ports[0].Send(p, 1, 1, []byte{byte(i), 1, 2, 3})
		}
		for i := 0; i < count; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	if len(order) != count {
		t.Fatalf("delivered %d messages, want %d", len(order), count)
	}
	for i, v := range order {
		if v != byte(i) {
			t.Fatalf("message order %v violated at %d", order, i)
		}
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	r := newRig(t, 2, nil)
	// Drop the first three data packets at the wire.
	drops := 0
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		if fr, ok := p.Payload.(*Frame); ok && fr.Kind == KindData && drops < 3 {
			drops++
			return true
		}
		return false
	}
	msg := pattern(10000)
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(1 << 16)
		got = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted after loss recovery")
	}
	if r.counter(t, 0, "retransmits") == 0 {
		t.Fatal("loss recovered without any retransmission?")
	}
}

func TestRandomLossManyMessagesAllDelivered(t *testing.T) {
	r := newRig(t, 2, nil)
	r.net.SetRNG(sim.NewRNG(99))
	r.net.LossRate = 0.05
	const count = 50
	var got [][]byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(count, 8192)
		for i := 0; i < count; i++ {
			got = append(got, bytes.Clone(r.ports[1].Recv(p).Data))
		}
	})
	var sent [][]byte
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			msg := pattern(100 + i*137)
			sent = append(sent, msg)
			r.ports[0].Send(p, 1, 1, msg)
		}
		for i := 0; i < count; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	if len(got) != count {
		t.Fatalf("delivered %d of %d under loss", len(got), count)
	}
	for i := range got {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("message %d corrupted or reordered under loss", i)
		}
	}
}

func TestAckLossTriggersDuplicateHandling(t *testing.T) {
	r := newRig(t, 2, nil)
	dropped := false
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		if k, ok := KindOf(p); ok && k == KindAck && !dropped {
			dropped = true
			return true
		}
		return false
	}
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(2, 256)
		got = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, pattern(32))
	})
	r.run(t)
	if !bytes.Equal(got, pattern(32)) {
		t.Fatal("message lost after ack drop")
	}
	if r.counter(t, 1, "duplicates") == 0 {
		t.Fatal("expected duplicate delivery after ack loss, saw none")
	}
	if r.ports[1].PendingRecvs() != 0 {
		t.Fatal("duplicate was delivered to the host twice")
	}
}

func TestNoReceiveTokenDelaysDelivery(t *testing.T) {
	r := newRig(t, 2, nil)
	var deliveredAt sim.Time
	r.eng.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // post the token late
		r.ports[1].Provide(256)
		r.ports[1].Recv(p)
		deliveredAt = p.Now()
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, pattern(16))
	})
	r.run(t)
	if deliveredAt < 2*sim.Millisecond {
		t.Fatalf("delivered at %v before a token existed", deliveredAt)
	}
	if r.counter(t, 1, "no_token_drops") == 0 {
		t.Fatal("expected tokenless drops, saw none")
	}
}

func TestSendTokenExhaustionBlocksSender(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.SendTokens = 2 })
	var posted int
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(8, 256)
		for i := 0; i < 8; i++ {
			r.ports[1].Recv(p)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			r.ports[0].Send(p, 1, 1, pattern(16))
			posted++
		}
	})
	r.run(t)
	if posted != 8 {
		t.Fatalf("only %d sends posted; token recycling stuck", posted)
	}
}

func TestWindowLimitsInflightPackets(t *testing.T) {
	var maxInflight int
	r := newRig(t, 2, func(c *Config) { c.Window = 4 })
	// Observe the sender's record count through stats: inflight packets =
	// DataSent - (acks processed). Instead track via DropFn counting
	// simultaneous data packets between send and ack.
	inflight := 0
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		if k, ok := KindOf(p); ok {
			if k == KindData && l.String() == "host0->xbar0" {
				inflight++
				if inflight > maxInflight {
					maxInflight = inflight
				}
			}
			if k == KindAck && l.String() == "host1->xbar0" {
				inflight--
			}
		}
		return false
	}
	msg := pattern(40 * 4096) // 40 packets
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(1 << 20)
		r.ports[1].Recv(p)
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if maxInflight > 4+1 { // +1 tolerance for ack-in-flight race in the probe
		t.Fatalf("max inflight %d exceeds window 4", maxInflight)
	}
}

func TestExtensionInterceptsFrames(t *testing.T) {
	r := newRig(t, 2, nil)
	seen := 0
	r.nics[1].SetExtension(extFunc(func(fr *Frame) bool {
		seen++
		return false // pass through
	}))
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(256)
		got = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, pattern(16))
	})
	r.run(t)
	if seen == 0 {
		t.Fatal("extension saw no frames")
	}
	if !bytes.Equal(got, pattern(16)) {
		t.Fatal("pass-through extension broke unicast delivery")
	}
}

type extFunc func(*Frame) bool

func (f extFunc) HandleRx(_ fabric.NodeID, fr *Frame) bool { return f(fr) }
func (f extFunc) HandleCtl(fabric.NodeID, fabric.Ctl) bool { return false }

// The slot: unicast traffic never reaches it.
func (extFunc) Look(*Desc) { panic("unicast frame in the extension's look") }
func (extFunc) Left(*Desc) { panic("unicast packet in the extension's transmit") }
func (extFunc) AckTurn(fabric.NodeID, GroupID, uint32, uint32, bool) {
	panic("unicast ack in the extension's turn")
}
func (extFunc) Enqueue(*Token) { panic("unicast message in the extension's queue") }

func TestDoubleExtensionPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	r.nics[0].SetExtension(extFunc(func(*Frame) bool { return false }))
	defer func() {
		if recover() == nil {
			t.Error("second SetExtension did not panic")
		}
	}()
	r.nics[0].SetExtension(extFunc(func(*Frame) bool { return false }))
}

func TestBidirectionalTraffic(t *testing.T) {
	r := newRig(t, 2, nil)
	const rounds = 10
	ok0 := 0
	r.eng.Spawn("node0", func(p *sim.Proc) {
		r.ports[0].ProvideN(rounds, 256)
		for i := 0; i < rounds; i++ {
			r.ports[0].Send(p, 1, 1, []byte{byte(i)})
			ev := r.ports[0].Recv(p)
			if ev.Data[0] == byte(i) {
				ok0++
			}
		}
	})
	r.eng.Spawn("node1", func(p *sim.Proc) {
		r.ports[1].ProvideN(rounds, 256)
		for i := 0; i < rounds; i++ {
			ev := r.ports[1].Recv(p)
			r.ports[1].Keep(ev) // the echo reads ev.Data until it completes
			r.ports[1].Send(p, 0, 1, ev.Data)
		}
	})
	r.run(t)
	if ok0 != rounds {
		t.Fatalf("ping-pong completed %d/%d rounds", ok0, rounds)
	}
}

func TestManyToOne(t *testing.T) {
	const nodes = 8
	r := newRig(t, nodes, nil)
	received := map[byte]int{}
	r.eng.Spawn("sink", func(p *sim.Proc) {
		r.ports[0].ProvideN((nodes-1)*3, 512)
		for i := 0; i < (nodes-1)*3; i++ {
			ev := r.ports[0].Recv(p)
			received[ev.Data[0]]++
		}
	})
	for i := 1; i < nodes; i++ {
		i := i
		r.eng.Spawn("src", func(p *sim.Proc) {
			for j := 0; j < 3; j++ {
				r.ports[i].SendSync(p, 0, 1, []byte{byte(i), byte(j)})
			}
		})
	}
	r.run(t)
	for i := 1; i < nodes; i++ {
		if received[byte(i)] != 3 {
			t.Fatalf("sink got %d messages from node %d, want 3", received[byte(i)], i)
		}
	}
}

func TestSendToSelfPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	r.eng.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send to self did not panic")
			}
		}()
		r.ports[0].Send(p, 0, 1, []byte{1})
	})
	r.run(t)
}

func TestSequencesIndependentPerConnection(t *testing.T) {
	// Messages from node0 to node1 and node2 must not share ordering state.
	r := newRig(t, 3, nil)
	got1, got2 := 0, 0
	r.eng.Spawn("r1", func(p *sim.Proc) {
		r.ports[1].ProvideN(5, 256)
		for i := 0; i < 5; i++ {
			r.ports[1].Recv(p)
			got1++
		}
	})
	r.eng.Spawn("r2", func(p *sim.Proc) {
		r.ports[2].ProvideN(5, 256)
		for i := 0; i < 5; i++ {
			r.ports[2].Recv(p)
			got2++
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.ports[0].Send(p, 1, 1, []byte{1})
			r.ports[0].Send(p, 2, 1, []byte{2})
		}
		for i := 0; i < 10; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	if got1 != 5 || got2 != 5 {
		t.Fatalf("deliveries %d/%d, want 5/5", got1, got2)
	}
}

func TestStatsAccounting(t *testing.T) {
	r := newRig(t, 2, nil)
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(256)
		r.ports[1].Recv(p)
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, pattern(100))
	})
	r.run(t)
	if sent, received := r.counter(t, 0, "data_sent"), r.counter(t, 1, "data_received"); sent != 1 || received != 1 {
		t.Errorf("data counters: sent=%d received=%d, want 1/1", sent, received)
	}
	if sent, received := r.counter(t, 1, "acks_sent"), r.counter(t, 0, "acks_received"); sent != 1 || received != 1 {
		t.Errorf("ack counters: sent=%d received=%d, want 1/1", sent, received)
	}
	if rt := r.counter(t, 0, "retransmits"); rt != 0 {
		t.Errorf("lossless run retransmitted %d times", rt)
	}
}

func TestConfigPackets(t *testing.T) {
	c := DefaultConfig()
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {16384, 4}, {16287, 4},
	}
	for _, tc := range cases {
		if got := c.Packets(tc.n); got != tc.want {
			t.Errorf("Packets(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng := sim.NewEngine()
		net := fabric.SingleSwitch(eng, 4, fabric.DefaultLinkParams())
		net.SetRNG(sim.NewRNG(7))
		net.LossRate = 0.02
		cfg := DefaultConfig()
		var nics []*NIC
		var ports []*Port
		for i := 0; i < 4; i++ {
			hw := lanai.New(eng, net.Iface(fabric.NodeID(i)), lanai.DefaultParams())
			nic := NewNIC(hw, cfg)
			nics = append(nics, nic)
			ports = append(ports, nic.OpenPort(1))
		}
		for i := 1; i < 4; i++ {
			i := i
			eng.Spawn("recv", func(p *sim.Proc) {
				ports[i].ProvideN(10, 4096)
				for j := 0; j < 10; j++ {
					ports[i].Recv(p)
				}
			})
		}
		eng.Spawn("send", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				for i := 1; i < 4; i++ {
					ports[0].Send(p, fabric.NodeID(i), 1, pattern(200+j))
				}
			}
			for j := 0; j < 30; j++ {
				ports[0].WaitSendDone(p)
			}
		})
		eng.Run()
		eng.Kill()
		return eng.Now(), eng.EventsFired()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}
