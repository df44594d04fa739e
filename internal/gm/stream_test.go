package gm

import (
	"testing"

	"repro/internal/sim"
)

// streamUnicast streams msgs messages of size bytes from node 0 to node 1
// of r and runs the engine until they are all delivered and acknowledged:
// the sender posts as fast as its send tokens come back, and the receiver
// keeps a send window's worth of receive tokens posted, so nothing is
// dropped and every packet travels once.
func streamUnicast(tb testing.TB, r *rig, msgs, size int) {
	tb.Helper()
	src, dst := r.ports[0], r.ports[1]
	msg := pattern(size)
	got := 0
	r.eng.Spawn("recv", func(p *sim.Proc) {
		dst.ProvideN(src.nic.Cfg.SendTokens, size)
		for range msgs {
			if ev := dst.Recv(p); len(ev.Data) == size {
				got++
			}
			dst.Provide(size)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		for range msgs {
			src.Send(p, 1, 1, msg)
		}
		for range msgs {
			src.WaitSendDone(p)
		}
	})
	r.eng.Run()
	if got != msgs {
		tb.Fatalf("%d of %d messages delivered whole", got, msgs)
	}
}

// A steady unicast stream of two-packet messages, per message: the host
// post, two packets with their descriptors and frames, the acks, the
// receive event. Run with -benchmem, allocs/op is what one message costs
// the heap once the stream is warm.
func BenchmarkUnicastStream(b *testing.B) {
	r := newRig(b, 2, nil)
	size := 2 * r.nics[0].Cfg.MTU
	streamUnicast(b, r, 64, size) // warm: pools and queues at their high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	streamUnicast(b, r, b.N, size)
}
