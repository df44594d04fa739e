package gm

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestAdaptiveRTORecoversFasterThanFixed(t *testing.T) {
	// Warm the estimator with clean traffic, then lose one packet: the
	// adaptive sender retries after ~RTT-scaled time, far sooner than the
	// 500µs fixed timer.
	run := func(adaptive bool) sim.Time {
		r := newRig(t, 2, func(c *Config) { c.AdaptiveRTO = adaptive })
		drop := false
		r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
			fr, ok := p.Payload.(*Frame)
			if ok && fr.Kind == KindData && drop {
				drop = false
				return true
			}
			return false
		}
		var at sim.Time
		r.eng.Spawn("recv", func(p *sim.Proc) {
			r.ports[1].ProvideN(11, 256)
			for i := 0; i < 11; i++ {
				r.ports[1].Recv(p)
				at = p.Now()
			}
		})
		r.eng.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 10; i++ { // warm the RTT estimator
				r.ports[0].SendSync(p, 1, 1, pattern(64))
			}
			drop = true
			r.ports[0].SendSync(p, 1, 1, pattern(64))
		})
		r.run(t)
		return at
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive >= fixed {
		t.Fatalf("adaptive RTO recovery (%v) not faster than fixed (%v)", adaptive, fixed)
	}
}

func TestAdaptiveRTOFloorsAtMinRTO(t *testing.T) {
	// Even with a microsecond-scale RTT, the timer never drops below
	// MinRTO, so in-flight acks are not retried spuriously.
	r := newRig(t, 2, func(c *Config) { c.AdaptiveRTO = true })
	var got []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(20, 256)
		for i := 0; i < 20; i++ {
			got = r.ports[1].Recv(p).Data
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			r.ports[0].SendSync(p, 1, 1, pattern(64))
		}
	})
	r.run(t)
	if !bytes.Equal(got, pattern(64)) {
		t.Fatal("traffic corrupted")
	}
	if rt := r.counter(t, 0, "retransmits"); rt != 0 {
		t.Fatalf("clean adaptive run retransmitted %d times (timer below the RTT?)", rt)
	}
}

func TestKarnsRuleExcludesRetransmittedSamples(t *testing.T) {
	// Delay recovery inflates a retransmitted packet's apparent RTT; with
	// Karn's rule the estimator must stay near the true RTT afterwards.
	r := newRig(t, 2, func(c *Config) { c.AdaptiveRTO = true })
	dropOnce := true
	r.net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*Frame)
		if ok && fr.Kind == KindData && fr.Seq == 3 && dropOnce {
			dropOnce = false
			return true
		}
		return false
	}
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(30, 256)
		for i := 0; i < 30; i++ {
			r.ports[1].Recv(p)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			r.ports[0].SendSync(p, 1, 1, pattern(32))
		}
	})
	r.run(t)
	// Inspect the estimator: a poisoned sample would push SRTT toward the
	// 500µs first-retry latency; the true ack RTT here is ~10µs.
	for _, c := range r.nics[0].conns {
		if c.win.srtt > 50*sim.Microsecond {
			t.Fatalf("SRTT %v poisoned by a retransmitted sample", c.win.srtt)
		}
	}
}

func TestAdaptiveRTOUnderSustainedLoss(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.AdaptiveRTO = true })
	r.net.SetRNG(sim.NewRNG(77))
	r.net.LossRate = 0.05
	const count = 30
	delivered := 0
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(count, 8192)
		for i := 0; i < count; i++ {
			r.ports[1].Recv(p)
			delivered++
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r.ports[0].Send(p, 1, 1, pattern(100+i*211))
		}
		for i := 0; i < count; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	if delivered != count {
		t.Fatalf("delivered %d of %d under loss with adaptive RTO", delivered, count)
	}
}
