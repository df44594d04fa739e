package gm

// End-to-end regression tests for the sender-side recovery path: Karn's
// rule under adaptive timeouts and sequence-number wraparound under loss.
// The window's own rules (hold-off, backoff reset, cumulative retire) are
// pinned in window_test.go.

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestKarnRuleSkipsRetransmitRTTSample drops a message's first copy so the
// ack that finally arrives belongs to a retransmission. Karn's rule says
// that ack must NOT feed the RTT estimator — the measured "round trip"
// would include the timeout and poison the adaptive RTO. A clean follow-up
// message must then prime the estimator normally.
func TestKarnRuleSkipsRetransmitRTTSample(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.AdaptiveRTO = true })
	dropOnce := true
	r.net.DropFn = func(p *fabric.Packet, _ *fabric.Link) bool {
		if fr, ok := p.Payload.(*Frame); ok && fr.Kind == KindData && dropOnce {
			dropOnce = false
			return true
		}
		return false
	}
	msg := pattern(256)
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(2, 1<<14)
		r.ports[1].Recv(p)
		r.ports[1].Recv(p)
	})
	var srttAfterRetransmit sim.Time
	c := r.nics[0].sendConn(1, 1, 1)
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg) // lost, recovered by timeout
		srttAfterRetransmit = c.win.srtt
		r.ports[0].SendSync(p, 1, 1, msg) // clean: first legitimate sample
	})
	r.run(t)
	if got := r.nics[0].m.timeouts.Value(); got == 0 {
		t.Fatal("the drop never forced a timeout — the test exercised nothing")
	}
	if srttAfterRetransmit != 0 {
		t.Fatalf("retransmitted packet's ack was RTT-sampled: srtt=%v, want 0 (Karn's rule)", srttAfterRetransmit)
	}
	if c.win.srtt == 0 {
		t.Fatal("clean send produced no RTT sample — estimator never primes")
	}
}

// TestSequenceWraparoundUnderLoss drives a connection across the uint32
// sequence wrap with deterministic packet loss. Ordered comparisons on
// raw sequence numbers deadlock here (records past the wrap are "smaller"
// than the cumulative ack); serial-number arithmetic must carry the
// stream through unharmed.
func TestSequenceWraparoundUnderLoss(t *testing.T) {
	r := newRig(t, 2, nil)
	stream := golden.Hook([]*sim.Engine{r.eng})
	const start = uint32(0xFFFFFFFA) // six packets before the wrap
	c := r.nics[0].sendConn(1, 1, 1)
	c.nextSeq = start
	c.win.Reset(1, start-1)
	r.nics[1].recvConn(0, 1, 1).expect = start
	rec := trace.NewRecorder()
	for _, n := range r.nics {
		n.Trace = rec
	}

	traversals := 0
	r.net.DropFn = func(p *fabric.Packet, _ *fabric.Link) bool {
		if fr, ok := p.Payload.(*Frame); ok && fr.Kind == KindData {
			traversals++
			return traversals%5 == 0 // deterministic loss straddling the wrap
		}
		return false
	}

	const msgs = 5
	msg := pattern(3 * 4096) // three packets per message: 15 packets total
	var got [][]byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(msgs, 3*4096)
		for i := 0; i < msgs; i++ {
			got = append(got, r.ports[1].Recv(p).Data)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.ports[0].SendSync(p, 1, 1, msg)
		}
	})
	// Bounded run: the pre-fix comparison bug retransmits forever instead
	// of failing, so Run() would hang the test suite.
	r.eng.RunUntil(sim.Second)
	live := r.eng.LiveProcs()
	r.eng.Kill()
	if live != 0 {
		t.Fatalf("%d processes still blocked after 1s — transfer deadlocked at the wrap", live)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(got), msgs)
	}
	for i, g := range got {
		if !bytes.Equal(g, msg) {
			t.Fatalf("message %d corrupted across the wrap", i)
		}
	}
	if c.nextSeq >= start {
		t.Fatalf("stream never wrapped: nextSeq=%d still >= start", c.nextSeq)
	}
	if c.win.Len() != 0 {
		t.Fatalf("%d send records leaked across the wrap", c.win.Len())
	}
	// Packet timeline and event count of this run, captured before the
	// send window was shared with core: the wrap must not just survive, it must
	// recover by the same retransmissions at the same instants.
	var buf bytes.Buffer
	rec.WriteTimeline(&buf)
	golden.Check(t, "TestSequenceWraparoundUnderLoss", "wrap-5x3-loss5th", golden.Capture{
		Clock: r.eng.Now(), Events: r.eng.EventsFired(), Trace: buf.Bytes(), Stream: stream()})
}
