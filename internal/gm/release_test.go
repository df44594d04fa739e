package gm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// land delivers one message of msgLen bytes to p the way the firmware does
// — match a token, deposit the payload, let the event record's DMA run —
// and returns the event the host would receive. Its TryRecv takes back the
// event lent before, after the new message has matched its buffer.
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

// mustPanic runs f and checks that it panics with a message containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
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

// A buffer the port has taken back serves a later message that fits in it
// and no other: the 4 KB message gets a buffer of its own, never the spare
// 1 KB one.
func TestReleasedBufferServesOnlyMessagesThatFit(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.ProvideN(5, 16<<10)

	first := land(t, r, p, 1, 1<<10)
	buf := &first.Data[0]
	p.TryRecv() // nothing pending: the port takes first back

	big := land(t, r, p, 2, 4<<10)
	if len(big.Data) != 4<<10 || cap(big.Data) < 4<<10 {
		t.Fatalf("4 KB message delivered in a buffer of len %d cap %d", len(big.Data), cap(big.Data))
	}
	if &big.Data[0] == buf {
		t.Fatal("4 KB message was handed the spare 1 KB buffer")
	}
	p.TryRecv()

	// Best fit over the spares: 600 B lands in the 4 KB one only if no
	// smaller one fits, and here none is left (the 1 KB buffer was dropped
	// when its assembly was reused for the 4 KB message).
	small := land(t, r, p, 3, 600)
	if &small.Data[0] != &big.Data[0] {
		t.Error("600 B message did not reuse the spare 4 KB buffer")
	}
	if len(small.Data) != 600 {
		t.Errorf("reused buffer delivered %d bytes, want 600", len(small.Data))
	}
	// Kept, small stays the host's, so the next message gets a fresh buffer.
	p.Keep(small)
	other := land(t, r, p, 4, 600)
	if &other.Data[0] == &small.Data[0] {
		t.Fatal("a buffer the host keeps was handed to another message")
	}
	p.Release(small)
	p.TryRecv()
	if got := land(t, r, p, 5, 500); &got.Data[0] != &small.Data[0] && &got.Data[0] != &other.Data[0] {
		t.Error("with two spare buffers that fit, the message got a third")
	}
}

// The port lends an event until its next receive: a TryRecv that finds
// nothing and a Recv that has to block both take it back, and the next
// message lands in its buffer.
func TestNextReceiveTakesBackTheLentEvent(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.ProvideN(3, 64)
	ev := land(t, r, p, 1, 8)
	if _, ok := p.TryRecv(); ok {
		t.Fatal("TryRecv found a message nobody sent")
	}
	if next := land(t, r, p, 2, 8); next != ev {
		t.Fatal("an empty TryRecv did not take the lent event back")
	}
	r.eng.Spawn("host", func(proc *sim.Proc) {
		if got := p.Recv(proc); got != ev {
			t.Error("a Recv that blocked did not take the lent event back before the message landed")
		}
	})
	r.eng.Spawn("nic", func(proc *sim.Proc) {
		proc.Sleep(sim.Microsecond)
		asm, _ := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 3, MsgLen: 8})
		asm.Deposit(0, pattern(8))
	})
	r.run(t)
}

// A kept event stays the host's across any number of receives: no later
// message is delivered as it or lands in its buffer, which holds its own
// message until Release.
func TestKeptEventIsNeverReused(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.ProvideN(10, 64)
	kept := land(t, r, p, 1, 32)
	p.Keep(kept)
	for id := uint64(2); id <= 10; id++ {
		ev := land(t, r, p, id, 32)
		if ev == kept || &ev.Data[0] == &kept.Data[0] {
			t.Fatalf("message %d was delivered in the kept event", id)
		}
		p.TryRecv()
	}
	if kept.MsgID != 1 || !bytes.Equal(kept.Data, pattern(32)) {
		t.Fatalf("the kept event changed: msg %d, %d bytes", kept.MsgID, len(kept.Data))
	}
	p.Release(kept)
}

// Release is for an event kept on the port that delivered it, once; Keep is
// for the event the port lends now. Every misuse panics: a second release
// could otherwise hand one buffer to two messages, and a release of a lent
// event (which the port takes back by itself) would recycle it twice.
func TestReleaseMisusePanics(t *testing.T) {
	r := newRig(t, 3, nil)
	p, other := r.ports[1], r.ports[2]
	p.ProvideN(3, 64)
	ev := land(t, r, p, 1, 8)

	mustPanic(t, "release of a lent event", "not kept", func() { p.Release(ev) })
	mustPanic(t, "keep on another port", "received on port", func() { other.Keep(ev) })
	p.Keep(ev)
	p.Keep(ev) // keeping a kept event does nothing
	mustPanic(t, "release on another port", "received on port", func() { other.Release(ev) })
	p.Release(ev)
	mustPanic(t, "second release", "not kept", func() { p.Release(ev) })
	mustPanic(t, "keep of a released event", "no longer lends", func() { p.Keep(ev) })

	// The spare serves the next message, and while that message is still
	// arriving its event can be neither kept nor released.
	asm, _ := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 2, MsgLen: 8})
	mustPanic(t, "release of an event being assembled", "not kept", func() { p.Release(ev) })
	mustPanic(t, "keep of an event being assembled", "no longer lends", func() { p.Keep(ev) })
	asm.Deposit(0, pattern(8))
	r.eng.Run()
	if again, _ := p.TryRecv(); again != ev {
		t.Fatal("the released event was not reused for the next message")
	}
	// Once the port's next receive has taken it back, it is too late for both.
	land(t, r, p, 3, 8)
	mustPanic(t, "keep after the next receive", "no longer lends", func() { p.Keep(ev) })
	mustPanic(t, "release after the next receive", "not kept", func() { p.Release(ev) })

	// A firmware-generated event has no buffer behind it: a no-op, any port.
	fw := &RecvEvent{Group: 7}
	p.Keep(fw)
	p.Release(fw)
	p.Release(fw)
	other.Keep(fw)
	other.Release(fw)
}

// Neither taking an event back nor releasing a kept one posts a token.
func TestReleasePostsNoToken(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.ProvideN(2, 64)
	kept := land(t, r, p, 1, 8)
	p.Keep(kept)
	land(t, r, p, 2, 8)
	p.TryRecv()
	p.Release(kept)
	if p.RecvTokens() != 0 {
		t.Fatalf("%d tokens posted after a take-back and a release, want 0", p.RecvTokens())
	}
	if _, ok := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 3, MsgLen: 8}); ok {
		t.Fatal("a message matched with no token posted")
	}
}

// End to end over the wire: a receiver that provides a token for each event,
// and never releases one, sees every message intact, in one buffer.
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

// NICs that share spares hand a buffer one port took back to the next message
// at another; NICs on different engines cannot share, since nothing orders
// two engines' touches of one pool.
func TestShareSpares(t *testing.T) {
	r := newRig(t, 3, nil)
	r.nics[2].ShareSpares(r.nics[1])
	r.ports[1].ProvideN(2, 64)
	r.ports[2].ProvideN(2, 64)
	ev := land(t, r, r.ports[1], 1, 8)
	r.ports[1].TryRecv() // takes ev back into the shared pool
	if got := land(t, r, r.ports[2], 2, 8); got != ev {
		t.Error("a spare of one NIC did not serve the next message at the NIC sharing its pool")
	}
	r.ports[2].TryRecv()
	r.ports[0].Provide(64)
	if got := land(t, r, r.ports[0], 3, 8); got == ev {
		t.Error("a NIC that shares nothing got another NIC's buffer")
	}

	other := newRig(t, 2, nil)
	mustPanic(t, "sharing spares across engines", "different engines", func() { other.nics[0].ShareSpares(r.nics[1]) })
}
