package gm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// streamMsgs pipelines n async sends of a size-byte payload from node 0 to
// node 1 and counts in-order deliveries.
func streamMsgs(t *testing.T, r *rig, n, size int) int {
	t.Helper()
	delivered := 0
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(n, size+256)
		for i := 0; i < n; i++ {
			if !bytes.Equal(r.ports[1].Recv(p).Data, pattern(size)) {
				t.Errorf("delivery %d corrupted", i)
			}
			delivered++
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.ports[0].Send(p, 1, 1, pattern(size))
		}
		for i := 0; i < n; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	return delivered
}

func TestCoalescedAcksCutAckTraffic(t *testing.T) {
	const msgs = 32
	r := newRig(t, 2, func(c *Config) { c.AckEvery = 4 })
	if got := streamMsgs(t, r, msgs, 64); got != msgs {
		t.Fatalf("delivered %d of %d", got, msgs)
	}
	sent, suppressed := r.counter(t, 1, "acks_sent"), r.counter(t, 1, "acks_suppressed")
	// Every accepted packet is either acknowledged or folded into a
	// cumulative ack — the economy may never lose one.
	if sent+suppressed != msgs {
		t.Fatalf("acks sent %d + suppressed %d != %d packets accepted",
			sent, suppressed, msgs)
	}
	if sent > msgs/2 {
		t.Fatalf("coalescing sent %d acks for %d packets (expected <= %d)",
			sent, msgs, msgs/2)
	}
	if rt := r.counter(t, 0, "retransmits"); rt != 0 {
		t.Fatalf("delayed acks caused %d spurious retransmits", rt)
	}
	if n := r.nics[1].PendingAckTimers(); n != 0 {
		t.Fatalf("%d delayed-ack timers still armed after quiescence", n)
	}
}

func TestPiggybackAcksRideReverseData(t *testing.T) {
	// Request/reply traffic: node 1 answers every 4th message while its
	// coalesce window (AckEvery 8) is still open, so the reply frames must
	// carry the pending cumulative ack instead of a standalone ack packet.
	const msgs, replyEvery = 16, 4
	r := newRig(t, 2, func(c *Config) {
		c.AckEvery = 8
		c.PiggybackAcks = true
	})
	replies := 0
	r.eng.Spawn("echo", func(p *sim.Proc) {
		r.ports[1].ProvideN(msgs, 512)
		for i := 1; i <= msgs; i++ {
			if !bytes.Equal(r.ports[1].Recv(p).Data, pattern(256)) {
				t.Errorf("request %d corrupted", i)
			}
			if i%replyEvery == 0 {
				r.ports[1].Send(p, 0, 1, pattern(32))
			}
		}
		for i := 0; i < msgs/replyEvery; i++ {
			r.ports[1].WaitSendDone(p)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].ProvideN(msgs/replyEvery, 512)
		for i := 0; i < msgs; i++ {
			r.ports[0].Send(p, 1, 1, pattern(256))
		}
		for i := 0; i < msgs; i++ {
			r.ports[0].WaitSendDone(p)
		}
		for i := 0; i < msgs/replyEvery; i++ {
			r.ports[0].Recv(p)
			replies++
		}
	})
	r.run(t)
	if replies != msgs/replyEvery {
		t.Fatalf("got %d replies, want %d", replies, msgs/replyEvery)
	}
	if r.counter(t, 1, "acks_piggybacked") == 0 {
		t.Fatal("reverse data carried no piggybacked acks")
	}
	if sent, suppressed := r.counter(t, 1, "acks_sent"), r.counter(t, 1, "acks_suppressed"); sent+suppressed != msgs {
		t.Fatalf("acks sent %d + suppressed %d != %d requests accepted",
			sent, suppressed, msgs)
	}
	for i := range r.nics {
		if rt := r.counter(t, i, "retransmits"); rt != 0 {
			t.Fatalf("node %d: %d spurious retransmits under piggybacking", i, rt)
		}
	}
}

// TestCoalescedRTTEstimatorSane is the delayed-ack RTO property check: on a
// clean pipelined run the estimator must have sampled, the effective timeout
// must stay above the MinRTO+ack-delay floor (no collapse below the lawful
// ack hold time) yet bounded (no runaway from coalesce-inflated samples),
// and backoff must be reset.
func TestCoalescedRTTEstimatorSane(t *testing.T) {
	const msgs = 64
	r := newRig(t, 2, func(c *Config) {
		c.AdaptiveRTO = true
		c.AckEvery = 4
	})
	if got := streamMsgs(t, r, msgs, 64); got != msgs {
		t.Fatalf("delivered %d of %d", got, msgs)
	}
	cfg := r.nics[0].Cfg
	floor := cfg.MinRTO + cfg.EffectiveAckDelay()
	for _, c := range r.nics[0].conns {
		if c.win.srtt == 0 {
			t.Fatal("estimator never sampled under coalesced acks")
		}
		if got := c.win.rto(); got < floor {
			t.Fatalf("RTO %v collapsed below the coalescing floor %v", got, floor)
		}
		if got := c.win.rto(); got > 4*cfg.RetransmitTimeout {
			t.Fatalf("RTO %v ran away (fixed timeout is %v)", got, cfg.RetransmitTimeout)
		}
		if c.win.backoff != 0 {
			t.Fatalf("backoff %d not reset by ack progress", c.win.backoff)
		}
	}
	if rt := r.counter(t, 0, "retransmits"); rt != 0 {
		t.Fatalf("clean coalesced run retransmitted %d times (RTO below ack delay?)", rt)
	}
}

// TestCoalescedAdaptiveRTOUnderLoss: sustained loss with both adaptive
// timeouts and the full ack economy still delivers everything exactly once
// and leaves the backoff reset.
func TestCoalescedAdaptiveRTOUnderLoss(t *testing.T) {
	const msgs = 30
	r := newRig(t, 2, func(c *Config) {
		c.AdaptiveRTO = true
		c.AckEvery = 4
		c.PiggybackAcks = true
	})
	r.net.SetRNG(sim.NewRNG(77))
	r.net.LossRate = 0.05
	if got := streamMsgs(t, r, msgs, 3000); got != msgs {
		t.Fatalf("delivered %d of %d under loss", got, msgs)
	}
	for _, c := range r.nics[0].conns {
		if c.win.Len() != 0 {
			t.Fatalf("%d send records leaked after recovery", c.win.Len())
		}
		if c.win.backoff != 0 {
			t.Fatalf("backoff %d not reset after recovery", c.win.backoff)
		}
	}
	if n := r.nics[1].PendingAckTimers(); n != 0 {
		t.Fatalf("%d delayed-ack timers still armed after recovery", n)
	}
}

// TestCumulativeAckSeqWraparound drives the delayed-ack state machine
// across the uint32 sequence boundary: with both ends' serial state pinned
// just below MaxUint32, cumulative acks retire records spanning the wrap
// (SeqBefore/SeqLEQ arithmetic, not magnitude comparison).
func TestCumulativeAckSeqWraparound(t *testing.T) {
	const msgs = 16
	r := newRig(t, 2, func(c *Config) { c.AckEvery = 4 })

	// Establish the connection state with one ordinary message.
	r.eng.Spawn("recv0", func(p *sim.Proc) {
		r.ports[1].Provide(512)
		r.ports[1].Recv(p)
	})
	r.eng.Spawn("send0", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, pattern(64))
	})
	r.eng.Run()

	// Jump both ends of the serial space to just below the wrap: the next
	// 16 packets carry seqs 0xfffffffd, 0xfffffffe, 0xffffffff, 0, 1, ...
	jump := ^uint32(0) - 2
	c := r.nics[0].sendConn(1, 1, 1)
	rv := r.nics[1].recvConn(0, 1, 1)
	c.nextSeq = jump
	c.win.Reset(1, jump-1)
	rv.expect = jump

	delivered := 0
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(msgs, 512)
		for i := 0; i < msgs; i++ {
			if !bytes.Equal(r.ports[1].Recv(p).Data, pattern(64)) {
				t.Errorf("delivery %d corrupted across wraparound", i)
			}
			delivered++
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.ports[0].Send(p, 1, 1, pattern(64))
		}
		for i := 0; i < msgs; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.eng.Run()
	r.eng.Kill()

	if delivered != msgs {
		t.Fatalf("delivered %d of %d across the seq wraparound", delivered, msgs)
	}
	want := jump + uint32(msgs) // wraps past zero by construction
	if !SeqBefore(jump, rv.expect) || rv.expect != want {
		t.Fatalf("receiver expect %#x, want %#x (serial advance across wrap)", rv.expect, want)
	}
	if c.win.Len() != 0 {
		t.Fatalf("%d send records not retired across wraparound", c.win.Len())
	}
	if rt := r.counter(t, 0, "retransmits"); rt != 0 {
		t.Fatalf("%d retransmits on a clean wraparound run", rt)
	}
}

// TestAckModeEquivalence runs five workload patterns under the default
// per-packet acks and again under the full ack economy, asserting identical
// per-connection delivery sequences: coalescing may only change when acks
// travel, never what the host observes.
func TestAckModeEquivalence(t *testing.T) {
	type delivery struct {
		MsgID uint64
		Len   int
		Sum   uint32
	}
	checksum := func(b []byte) uint32 {
		var s uint32
		for _, x := range b {
			s = s*31 + uint32(x)
		}
		return s
	}
	economy := func(c *Config) {
		c.AckEvery = 4
		c.PiggybackAcks = true
	}
	// Each pattern returns the per-(receiver, source) delivery log.
	patterns := []struct {
		name string
		run  func(mut func(*Config)) map[string][]delivery
	}{
		{"stream", func(mut func(*Config)) map[string][]delivery {
			r := newRig(t, 2, mut)
			log := map[string][]delivery{}
			r.eng.Spawn("recv", func(p *sim.Proc) {
				r.ports[1].ProvideN(24, 2048)
				for i := 0; i < 24; i++ {
					ev := r.ports[1].Recv(p)
					k := fmt.Sprintf("1<-%v", ev.Src)
					log[k] = append(log[k], delivery{ev.MsgID, len(ev.Data), checksum(ev.Data)})
				}
			})
			r.eng.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < 24; i++ {
					r.ports[0].Send(p, 1, 1, pattern(100+i*13))
				}
				for i := 0; i < 24; i++ {
					r.ports[0].WaitSendDone(p)
				}
			})
			r.run(t)
			return log
		}},
		{"bigmsgs", func(mut func(*Config)) map[string][]delivery {
			r := newRig(t, 2, mut)
			log := map[string][]delivery{}
			r.eng.Spawn("recv", func(p *sim.Proc) {
				r.ports[1].ProvideN(6, 16384)
				for i := 0; i < 6; i++ {
					ev := r.ports[1].Recv(p)
					k := fmt.Sprintf("1<-%v", ev.Src)
					log[k] = append(log[k], delivery{ev.MsgID, len(ev.Data), checksum(ev.Data)})
				}
			})
			r.eng.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < 6; i++ {
					r.ports[0].Send(p, 1, 1, pattern(9000+i*501))
				}
				for i := 0; i < 6; i++ {
					r.ports[0].WaitSendDone(p)
				}
			})
			r.run(t)
			return log
		}},
		{"pingpong", func(mut func(*Config)) map[string][]delivery {
			r := newRig(t, 2, mut)
			log := map[string][]delivery{}
			record := func(who int, ev *RecvEvent) {
				k := fmt.Sprintf("%d<-%v", who, ev.Src)
				log[k] = append(log[k], delivery{ev.MsgID, len(ev.Data), checksum(ev.Data)})
			}
			r.eng.Spawn("a", func(p *sim.Proc) {
				r.ports[0].ProvideN(16, 1024)
				for i := 0; i < 16; i++ {
					r.ports[0].SendSync(p, 1, 1, pattern(64+i))
					record(0, r.ports[0].Recv(p))
				}
			})
			r.eng.Spawn("b", func(p *sim.Proc) {
				r.ports[1].ProvideN(16, 1024)
				for i := 0; i < 16; i++ {
					record(1, r.ports[1].Recv(p))
					r.ports[1].SendSync(p, 0, 1, pattern(200+i))
				}
			})
			r.run(t)
			return log
		}},
		{"fanin", func(mut func(*Config)) map[string][]delivery {
			r := newRig(t, 4, mut)
			log := map[string][]delivery{}
			r.eng.Spawn("recv", func(p *sim.Proc) {
				r.ports[0].ProvideN(36, 2048)
				for i := 0; i < 36; i++ {
					ev := r.ports[0].Recv(p)
					k := fmt.Sprintf("0<-%v", ev.Src)
					log[k] = append(log[k], delivery{ev.MsgID, len(ev.Data), checksum(ev.Data)})
				}
			})
			for s := 1; s <= 3; s++ {
				s := s
				r.eng.Spawn("send", func(p *sim.Proc) {
					for i := 0; i < 12; i++ {
						r.ports[s].Send(p, 0, 1, pattern(80+s*37+i*11))
					}
					for i := 0; i < 12; i++ {
						r.ports[s].WaitSendDone(p)
					}
				})
			}
			r.run(t)
			return log
		}},
		{"lossy", func(mut func(*Config)) map[string][]delivery {
			r := newRig(t, 2, mut)
			r.net.SetRNG(sim.NewRNG(1234))
			r.net.LossRate = 0.03
			log := map[string][]delivery{}
			r.eng.Spawn("recv", func(p *sim.Proc) {
				r.ports[1].ProvideN(20, 8192)
				for i := 0; i < 20; i++ {
					ev := r.ports[1].Recv(p)
					k := fmt.Sprintf("1<-%v", ev.Src)
					log[k] = append(log[k], delivery{ev.MsgID, len(ev.Data), checksum(ev.Data)})
				}
			})
			r.eng.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					r.ports[0].Send(p, 1, 1, pattern(500+i*211))
				}
				for i := 0; i < 20; i++ {
					r.ports[0].WaitSendDone(p)
				}
			})
			r.run(t)
			return log
		}},
	}
	for _, pat := range patterns {
		base := pat.run(nil)
		econ := pat.run(economy)
		if !reflect.DeepEqual(base, econ) {
			t.Errorf("pattern %q: delivery sequences differ between ack modes\n default: %v\n economy: %v",
				pat.name, base, econ)
		}
		if len(base) == 0 {
			t.Errorf("pattern %q recorded no deliveries", pat.name)
		}
	}
}
