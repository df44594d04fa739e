package gm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// land delivers one message of msgLen bytes to p the way the firmware does
// — match a token, deposit the payload, let the event record's DMA run —
// and returns the event the host would receive.
func land(t *testing.T, r *rig, p *Port, msgID uint64, msgLen int) *RecvEvent {
	t.Helper()
	asm, ok := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: msgID, MsgLen: msgLen})
	if !ok {
		t.Fatalf("message %d of %d bytes matched no token", msgID, msgLen)
	}
	asm.Deposit(0, pattern(msgLen))
	r.eng.Run()
	ev, ok := p.TryRecv()
	if !ok {
		t.Fatalf("message %d was not delivered", msgID)
	}
	if !bytes.Equal(ev.Data, pattern(msgLen)) || ev.MsgID != msgID {
		t.Fatalf("message %d delivered as msg %d with %d bytes", msgID, ev.MsgID, len(ev.Data))
	}
	return ev
}

// A released buffer serves a later message that fits in it and no other:
// the 4 KB message gets a buffer of its own, never the released 1 KB one.
func TestReleasedBufferServesOnlyMessagesThatFit(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.ProvideN(5, 16<<10)

	first := land(t, r, p, 1, 1<<10)
	buf := &first.Data[0]
	p.Release(first)

	big := land(t, r, p, 2, 4<<10)
	if len(big.Data) != 4<<10 || cap(big.Data) < 4<<10 {
		t.Fatalf("4 KB message delivered in a buffer of len %d cap %d", len(big.Data), cap(big.Data))
	}
	if &big.Data[0] == buf {
		t.Fatal("4 KB message was handed the released 1 KB buffer")
	}
	p.Release(big)

	// Best fit over the released buffers: 600 B lands in the 4 KB one only
	// if no smaller one fits, and here none is left (the 1 KB buffer was
	// dropped when its assembly was reused for the 4 KB message).
	small := land(t, r, p, 3, 600)
	if &small.Data[0] != &big.Data[0] {
		t.Error("600 B message did not reuse the released 4 KB buffer")
	}
	if len(small.Data) != 600 {
		t.Errorf("reused buffer delivered %d bytes, want 600", len(small.Data))
	}
	// Nothing is released now, so the next message gets a fresh buffer while
	// the host still holds small.
	other := land(t, r, p, 4, 600)
	if &other.Data[0] == &small.Data[0] {
		t.Fatal("a buffer the host still holds was handed to another message")
	}
	p.Release(small)
	p.Release(other)
	if got := land(t, r, p, 5, 500); &got.Data[0] != &small.Data[0] && &got.Data[0] != &other.Data[0] {
		t.Error("with two released buffers that fit, the message got a third")
	}
}

// Release is for the port that delivered the event, once. Both misuses
// panic: a second release could otherwise hand one buffer to two messages.
func TestReleaseMisusePanics(t *testing.T) {
	r := newRig(t, 3, nil)
	p, other := r.ports[1], r.ports[2]
	p.ProvideN(2, 64)
	ev := land(t, r, p, 1, 8)

	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			v := recover()
			if v == nil {
				t.Errorf("%s did not panic", what)
			} else if s, _ := v.(string); !strings.Contains(s, want) {
				t.Errorf("%s panicked with %v, want a message containing %q", what, v, want)
			}
		}()
		f()
	}
	mustPanic("release on another port", "received on port", func() { other.Release(ev) })
	p.Release(ev)
	mustPanic("second release", "does not hold", func() { p.Release(ev) })

	// The event is back with the host once a new message lands in it, and
	// can be released again — but not while that message is still arriving.
	asm, _ := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 2, MsgLen: 8})
	mustPanic("release of an event being assembled", "does not hold", func() { p.Release(ev) })
	asm.Deposit(0, pattern(8))
	r.eng.Run()
	if again, _ := p.TryRecv(); again != ev {
		t.Fatal("the released event was not reused for the next message")
	}
	p.Release(ev)

	// A firmware-generated event has no buffer behind it: a no-op, any port.
	fw := &RecvEvent{Group: 7}
	p.Release(fw)
	p.Release(fw)
	other.Release(fw)
}

// Releasing recycles the buffer only; it is not a token.
func TestReleasePostsNoToken(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.Provide(64)
	p.Release(land(t, r, p, 1, 8))
	if p.RecvTokens() != 0 {
		t.Fatalf("%d tokens posted after a release, want 0", p.RecvTokens())
	}
	if _, ok := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 2, MsgLen: 8}); ok {
		t.Fatal("a message matched with no token posted")
	}
}

// End to end over the wire: a receiver that releases and re-provides in its
// loop sees every message intact, in one buffer.
func TestReceiveLoopReusesOneBuffer(t *testing.T) {
	r := newRig(t, 2, nil)
	const msgs, size = 20, 9000 // several packets each; the first is the largest
	sizeOf := func(i int) int { return size - (i%5)*1700 }
	seen := map[*byte]int{}
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].Provide(16 << 10)
		for i := 0; i < msgs; i++ {
			ev := r.ports[1].Recv(p)
			if !bytes.Equal(ev.Data, pattern(sizeOf(i))) {
				t.Errorf("message %d corrupted", i)
			}
			seen[&ev.Data[0]]++
			r.ports[1].Release(ev)
			r.ports[1].Provide(16 << 10)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.ports[0].SendSync(p, 1, 1, pattern(sizeOf(i)))
		}
	})
	r.run(t)
	if len(seen) != 1 {
		t.Errorf("%d messages landed in %d distinct buffers, want the first one reused throughout", msgs, len(seen))
	}
}
