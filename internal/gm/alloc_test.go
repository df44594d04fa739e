//go:build !race

package gm

import (
	"runtime"
	"runtime/pprof"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own, so these are
// left out of -race builds).

// On a warm port the whole receive cycle — match a token, deposit, deliver
// the event, Recv, Provide — allocates nothing: each Recv takes back the
// event the previous one lent, so the assembly, the event and the buffer
// come back from the NIC's spares, and the delivery closure was bound when
// the assembly was made.
func TestAllocReceiveCycleIsFree(t *testing.T) {
	r := newRig(t, 2, nil)
	port := r.ports[1]
	const capacity = 16300
	payload := pattern(1024)
	port.Provide(capacity)
	allocs := -1.0
	r.eng.Spawn("host", func(p *sim.Proc) {
		id := uint64(0)
		allocs = testing.AllocsPerRun(200, func() {
			id++
			asm, ok := port.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: id, MsgLen: len(payload)})
			if !ok {
				t.Fatal("no token for the message")
			}
			asm.Deposit(0, payload)
			// Let the event record reach the host first, so Recv finds the
			// message queued and parks only for HostRecvCost (parking on a
			// sim.Waiter appends to its queue).
			p.Sleep(sim.Microsecond)
			ev := port.Recv(p)
			if len(ev.Data) != len(payload) || ev.MsgID != id {
				t.Fatalf("cycle %d delivered msg %d with %d bytes", id, ev.MsgID, len(ev.Data))
			}
			port.Provide(capacity)
		})
	})
	r.run(t)
	if allocs != 0 {
		t.Errorf("a warm receive cycle allocates %.1f objects, want 0", allocs)
	}
}

// The token is an admission test, not a buffer size: a 4-byte message that
// claims an MPI-sized eager token costs its assembly and 4 bytes, not 16 KB.
func TestAllocSmallMessageOnLargeTokenIsSmall(t *testing.T) {
	r := newRig(t, 2, nil)
	port := r.ports[1]
	const msgs, capacity = 256, 16300
	port.ProvideN(msgs+1, capacity)
	land(t, r, port, 1, 4) // the port's queues and the engine's arena exist now
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < msgs; i++ {
		// Held, not released: every message is a cold one.
		asm, _ := port.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: uint64(i + 2), MsgLen: 4})
		asm.Deposit(0, []byte{1, 2, 3, 4})
		r.eng.Run()
		port.TryRecv()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / msgs
	t.Logf("%.1f B and %.2f objects per 4-byte message on a %d-byte token", per, float64(after.Mallocs-before.Mallocs)/msgs, capacity)
	if per >= 128 {
		t.Errorf("a 4-byte message on a %d-byte token allocates %.0f B, want under 128", capacity, per)
	}
}

// A warm unicast message — host post, send-event processing, buffer, SDMA,
// wire, receive processing, RDMA, event; and back: ack, window, send-done —
// allocates nothing. The data frame comes from the engine's pool and goes
// back there when its last holder, the send record, retires at the ack; the
// ack is no object at all — its header crosses the wire inside the fabric's
// packet, by value (the test keeps the name it had when both were frames
// made per packet). Every firmware step in between runs on a pooled
// descriptor.
func TestAllocUnicastCycleIsTwoFrames(t *testing.T) {
	r := newRig(t, 2, nil)
	src, dst := r.ports[0], r.ports[1]
	msg := pattern(1024)
	dst.Provide(len(msg))
	allocs := -1.0
	r.eng.Spawn("host", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			src.Send(p, 1, 1, msg)
			// Long enough for the message and its ack to cross, so neither
			// wait below parks (parking on a sim.Waiter appends to its queue).
			p.Sleep(100 * sim.Microsecond)
			src.WaitSendDone(p)
			ev := dst.Recv(p)
			if len(ev.Data) != len(msg) {
				t.Fatalf("delivered %d bytes, want %d", len(ev.Data), len(msg))
			}
			dst.Provide(len(msg))
		})
	})
	r.run(t)
	if allocs != 0 {
		t.Errorf("a warm unicast send → ack → done cycle allocates %.1f objects, want 0", allocs)
	}
	if free := len(r.nics[0].descFree) + len(r.nics[1].descFree); free == 0 || len(r.nics[0].tokFree) != 1 {
		t.Errorf("free lists hold %d packet and %d send descriptors, want some and 1", free, len(r.nics[0].tokFree))
	}
}

// Frames are pooled per engine and descriptors per NIC, each at its
// high-water mark, so their sizes are heap: a Frame fills the 96-byte class
// exactly (it was 112 with the two node IDs that now live in the fabric's
// packet; its holder count and pin share the word its kind leads, and its
// pool pointer took what the header's padding gave back), a descriptor 104
// bytes of the 112-byte class — the one descriptor unicast and the multicast
// extension share, a group ack's header, the replica being sent and the
// set-up cost included. It was two: 80 bytes for unicast's, 104 for the
// extension's.
func TestAllocFrameAndDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 96 {
		t.Errorf("a Frame is %d bytes, was 96", got)
	}
	if got := unsafe.Sizeof(Desc{}); got != 104 {
		t.Errorf("a packet descriptor is %d bytes, was 104", got)
	}
}

// The protocol block is allocated once per NIC, so its size is heap on every
// node: thirteen counters and one histogram's 48-byte header (its buckets come
// with its first observation), 152 bytes in the 160 class. A new instrument
// shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 152 {
		t.Errorf("the gm block is %d bytes, was 152", got)
	}
}

// A steady unicast stream allocates nothing per packet once warm: each
// frame, descriptor, send token and receive event comes off its free list
// and goes back. The stream's processes cost a fixed few objects whatever
// its length, so two streams on the same warm rig that differ by 200
// messages (400 packets) allocate the same, but for a few of the runtime's
// own objects landing in one run and not the other (a fresh frame per
// packet was one object a packet).
func TestAllocUnicastStreamIsFree(t *testing.T) {
	r := newRig(t, 2, nil)
	size := 2 * r.nics[0].Cfg.MTU
	streamUnicast(t, r, 64, size)
	objects := func(msgs int) uint64 {
		for {
			// A run during which the runtime started an OS thread is
			// measured again: the thread's records are not the stream's.
			threads := pprof.Lookup("threadcreate").Count()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			streamUnicast(t, r, msgs, size)
			runtime.ReadMemStats(&after)
			if pprof.Lookup("threadcreate").Count() == threads {
				return after.Mallocs - before.Mallocs
			}
		}
	}
	short, long := objects(100), objects(300)
	if per := (float64(long) - float64(short)) / 400; per > 0.02 {
		t.Errorf("a warm unicast stream allocates %.3f objects per packet (%d objects for 100 messages, %d for 300), want 0", per, short, long)
	}
}
