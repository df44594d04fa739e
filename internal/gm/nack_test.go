package gm

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// lossyRun sends a multi-packet message with the second data packet
// dropped and returns the delivery time and the rig it ran on.
func lossyRun(t *testing.T, nacks bool) (sim.Time, *rig) {
	t.Helper()
	r := newRig(t, 2, func(c *Config) { c.EnableNacks = nacks })
	dropped := false
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*Frame)
		if ok && fr.Kind == KindData && fr.Seq == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	msg := pattern(3 * 4096)
	var at sim.Time
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(1 << 15)
		got = r.ports[1].Recv(p).Data
		at = p.Now()
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted")
	}
	return at, r
}

func TestNacksSpeedUpRecovery(t *testing.T) {
	slow, _ := lossyRun(t, false)
	fast, r := lossyRun(t, true)
	if sent, received := r.counter(t, 1, "nacks_sent"), r.counter(t, 0, "nacks_received"); sent == 0 || received == 0 {
		t.Fatalf("nack counters empty: sent=%d received=%d", sent, received)
	}
	if fast >= slow {
		t.Fatalf("nack recovery (%v) not faster than timeout recovery (%v)", fast, slow)
	}
	// Timeout recovery waits out most of the 500µs timer; nack recovery
	// should finish well under half of that.
	if fast > slow/2 {
		t.Fatalf("nack recovery %v too close to timeout recovery %v", fast, slow)
	}
}

func TestNackHoldoffCollapsesBursts(t *testing.T) {
	// Drop one packet of a long stream: the many out-of-order packets
	// behind the hole each provoke a nack, but the sender must perform
	// far fewer fast retransmission rounds than it receives nacks.
	r := newRig(t, 2, func(c *Config) { c.EnableNacks = true })
	dropped := false
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*Frame)
		if ok && fr.Kind == KindData && fr.Seq == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	msg := pattern(10 * 4096)
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(1 << 17)
		got = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted")
	}
	nacks := r.counter(t, 1, "nacks_sent")
	if nacks < 2 {
		t.Fatalf("expected a burst of nacks, saw %d", nacks)
	}
	// Retransmits should be bounded by roughly one window, not
	// nacks × window.
	if rt := r.counter(t, 0, "retransmits"); rt > 2*uint64(r.nics[0].Cfg.Window) {
		t.Fatalf("%d retransmits for %d nacks: holdoff not effective", rt, nacks)
	}
}

func TestNacksDisabledByDefault(t *testing.T) {
	_, r := lossyRun(t, false)
	if r.counter(t, 1, "nacks_sent") != 0 || r.counter(t, 0, "nacks_received") != 0 {
		t.Fatal("nacks flowed while disabled")
	}
}

func TestRetransmitBackoffGrows(t *testing.T) {
	// A receiver that never accepts (no tokens, so no acks) forces
	// repeated timeouts; consecutive retransmissions must spread out
	// exponentially rather than fire at a fixed cadence.
	r := newRig(t, 2, nil)
	var sends []sim.Time
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*Frame)
		// Count each transmission once: at the sender's injection link.
		if ok && fr.Kind == KindData && l.String() == "host0->xbar0" {
			sends = append(sends, r.eng.Now())
		}
		return false
	}
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].Send(p, 1, 1, pattern(16))
	})
	r.eng.RunUntil(20 * sim.Millisecond)
	r.eng.Kill()
	if len(sends) < 4 {
		t.Fatalf("only %d transmissions in 20ms", len(sends))
	}
	gap1 := sends[2] - sends[1]
	gapLast := sends[len(sends)-1] - sends[len(sends)-2]
	if gapLast < 2*gap1 {
		t.Fatalf("retransmit gaps did not back off: first %v, last %v", gap1, gapLast)
	}
}

func TestBackoffResetsOnProgress(t *testing.T) {
	// After recovery, a later loss must again be retried at the base
	// timeout, not the backed-off interval.
	r := newRig(t, 2, nil)
	var dataSends []sim.Time
	dropUntil := 3 * sim.Millisecond
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*Frame)
		if !ok || fr.Kind != KindData {
			return false
		}
		dataSends = append(dataSends, r.eng.Now())
		return r.eng.Now() < dropUntil
	}
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(2, 64)
		r.ports[1].Recv(p)
		got = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, pattern(16)) // suffers backed-off retries
		r.ports[0].SendSync(p, 1, 1, []byte{9})   // clean send after recovery
	})
	r.run(t)
	if len(got) != 1 || got[0] != 9 {
		t.Fatal("second message lost")
	}
	// The second message's (single) transmission happened promptly after
	// the first completed — no residual backoff is directly observable,
	// but the connection must have made it through.
	if len(dataSends) < 3 {
		t.Fatalf("expected several transmissions, saw %d", len(dataSends))
	}
}
