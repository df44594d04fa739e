package gm

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindData: "DATA", KindAck: "ACK", KindMcastData: "MCAST",
		KindMcastAck: "MACK", KindNack: "NACK", KindMcastNack: "MNACK",
		KindBarrier: "BARR", KindBarrierAck: "BARRACK",
		KindReduce: "RED", KindReduceAck: "REDACK", KindDirected: "DSEND",
		Kind(200): "Kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestFrameString(t *testing.T) {
	fr := &Frame{
		Kind: KindData, SrcPort: 3, DstPort: 4,
		Seq: 5, MsgID: 6, MsgLen: 100, Offset: 0, Payload: []byte{1, 2, 3},
	}
	s := fr.Wire(1, 2)
	for _, want := range []string{"DATA", "n1:3->n2:4", "seq=5", "len=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("frame string %q missing %q", s, want)
		}
	}
}

func TestPortAccessors(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[0]
	if p.NIC() != r.nics[0] {
		t.Fatal("NIC accessor wrong")
	}
	if p.ID() != 1 {
		t.Fatalf("ID = %d", p.ID())
	}
	if p.Node() != 0 {
		t.Fatalf("Node = %v", p.Node())
	}
	p.Provide(128)
	if p.RecvTokens() != 1 {
		t.Fatalf("RecvTokens = %d", p.RecvTokens())
	}
	if _, ok := p.TryRecv(); ok {
		t.Fatal("TryRecv returned an event on an empty port")
	}
	if r.nics[0].Extension() != nil {
		t.Fatal("bare gm rig should have no firmware extension")
	}
}

func TestNICPortLookupPanicsOnUnknown(t *testing.T) {
	r := newRig(t, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("unknown port lookup did not panic")
		}
	}()
	r.nics[0].Port(99)
}

func TestOpenPortTwicePanics(t *testing.T) {
	r := newRig(t, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("double port open did not panic")
		}
	}()
	r.nics[0].OpenPort(1)
}

func TestRecvTokenCapEnforced(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.RecvTokensMax = 2 })
	r.ports[0].Provide(16)
	r.ports[0].Provide(16)
	defer func() {
		if recover() == nil {
			t.Error("receive token cap not enforced")
		}
	}()
	r.ports[0].Provide(16)
}

func TestTryRecvReturnsArrivedMessage(t *testing.T) {
	r := newRig(t, 2, nil)
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[1].Provide(64)
		r.ports[0].SendSync(p, 1, 1, []byte{7})
	})
	r.run(t)
	ev, ok := r.ports[1].TryRecv()
	if !ok || ev.Data[0] != 7 {
		t.Fatal("TryRecv missed a delivered message")
	}
}

func TestAssemblyAccessors(t *testing.T) {
	r := newRig(t, 2, nil)
	var a *Assembly
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(64)
		var ok bool
		a, ok = r.ports[1].MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 1, MsgLen: 10})
		if !ok {
			t.Error("match failed with a posted token")
		}
	})
	r.run(t)
	if a.MsgLen() != 10 || a.Done() {
		t.Fatalf("assembly accessors wrong: len=%d done=%v", a.MsgLen(), a.Done())
	}
	a.Deposit(0, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if !a.Done() {
		t.Fatal("assembly not done after full deposit")
	}
	r.run(t)
	ev, ok := r.ports[1].TryRecv()
	if !ok {
		t.Fatal("completed assembly delivered no event")
	}
	if len(ev.Data) != a.MsgLen() || ev.Data[9] != 9 {
		t.Fatalf("event carries %d bytes %v, want the %d deposited", len(ev.Data), ev.Data, a.MsgLen())
	}
	if ev.Src != 0 || ev.SrcPort != 1 || ev.MsgID != 1 || ev.Group != 0 {
		t.Fatalf("event names the wrong message: %+v", ev)
	}
}

func TestAssemblyDoubleCompletePanics(t *testing.T) {
	r := newRig(t, 2, nil)
	var a *Assembly
	r.eng.Spawn("p", func(p *sim.Proc) {
		r.ports[1].Provide(64)
		a, _ = r.ports[1].MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 1, MsgLen: 4})
	})
	r.run(t)
	a.Deposit(0, []byte{1, 2, 3, 4})
	defer func() {
		if recover() == nil {
			t.Error("deposit into completed assembly did not panic")
		}
	}()
	a.Deposit(0, []byte{1})
}

func TestWindowZeroValueConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.Window <= 0 || c.MTU <= 0 || c.SendTokens <= 0 {
		t.Fatal("default config has nonpositive limits")
	}
	if c.WireSize(0) != c.HeaderBytes {
		t.Fatal("WireSize(0) != header size")
	}
}
