package gm

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// A posted receive token is a size until a message claims it: preposting
// an MPI-sized ring on every port of a cluster must not hold the buffers.
func TestPostedTokenHoldsNoBuffer(t *testing.T) {
	const ports, tokens, capacity = 64, 128, 16 << 10 // 128 MB if each held its buffer
	r := newRig(t, ports, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range r.ports {
		p.ProvideN(tokens, capacity)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 1<<20 {
		t.Errorf("%d posted tokens hold %d bytes of heap, want under 1 MB", ports*tokens, held)
	}
	for _, p := range r.ports {
		if p.RecvTokens() != tokens {
			t.Fatalf("port reports %d posted tokens, want %d", p.RecvTokens(), tokens)
		}
	}
	runtime.KeepAlive(r)
}

// Matching is best-fit over the posted capacities, proven by outcome: the
// four messages can all be admitted only if each takes the smallest token
// that fits it (32 B or 200 B landing on a 16 KB token would leave the
// 16 KB message, or the 300 B one, with none). A claimed token frees its
// slot under RecvTokensMax.
func TestMatchTakesSmallestFittingToken(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.RecvTokensMax = 4 })
	p := r.ports[1]
	for _, capacity := range []int{16 << 10, 64, 16 << 10, 256} {
		p.Provide(capacity)
	}
	if err := recoverErr(t, func() { p.Provide(64) }); !errors.Is(err, ErrTokenExhausted) {
		t.Fatalf("fifth token under RecvTokensMax=4: got %v, want ErrTokenExhausted", err)
	}
	for i, msgLen := range []int{
		32,       // the eager message leaves both landing tokens alone
		200,      // so does the next one
		300,      // only now is a large token the smallest that fits
		16 << 10, // and the other large one is still there for this
	} {
		asm, ok := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: uint64(i + 1), MsgLen: msgLen})
		if !ok {
			t.Fatalf("message %d of %d bytes matched no token", i+1, msgLen)
		}
		if asm.MsgLen() != msgLen {
			t.Errorf("message of %d bytes is assembled as %d", msgLen, asm.MsgLen())
		}
		if got := p.RecvTokens(); got != 3-i {
			t.Errorf("%d tokens posted after %d matches, want %d", got, i+1, 3-i)
		}
	}
	if _, ok := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: 9, MsgLen: 1}); ok {
		t.Error("matched a message with no token posted")
	}
	p.Provide(64) // the claimed slots are free again
}

// A packet that is its whole message claims a token and a buffer but no place
// in the port's assembly table — there is no later packet to look it up — and
// a fabric-duplicated copy of it cannot open a second assembly: the sequence
// check refuses the copy before matching. A multi-packet message is tabled
// from its first packet to its last.
func TestWholeMessageSkipsAssemblyTable(t *testing.T) {
	r := newRig(t, 2, nil)
	p := r.ports[1]
	p.ProvideN(2, 64)
	whole := &Frame{SrcPort: 1, MsgID: 1, MsgLen: 4, Payload: []byte{1, 2, 3, 4}}
	a, ok := p.MatchAssembly(0, whole)
	if !ok || len(p.asms) != 0 {
		t.Fatalf("whole-message packet: matched %v, %d assemblies tabled, want true and 0", ok, len(p.asms))
	}
	a.Deposit(0, whole.Payload)
	first := &Frame{SrcPort: 1, MsgID: 2, MsgLen: 8, Payload: []byte{1, 2, 3, 4}}
	last := &Frame{SrcPort: 1, MsgID: 2, MsgLen: 8, Offset: 4, Payload: []byte{5, 6, 7, 8}}
	b, _ := p.MatchAssembly(0, first)
	if again, _ := p.MatchAssembly(0, last); again != b || len(p.asms) != 1 || p.RecvTokens() != 0 {
		t.Fatalf("the second packet of a message did not find the assembly its first one opened")
	}
	b.Deposit(0, first.Payload)
	b.Deposit(4, last.Payload)
	if !a.Done() || !b.Done() || len(p.asms) != 0 {
		t.Fatalf("done %v %v with %d assemblies still tabled", a.Done(), b.Done(), len(p.asms))
	}

	const msgs = 3
	r = newRig(t, 2, nil)
	r.net.DupFn = func(pkt *fabric.Packet, _ *fabric.Link) bool {
		k, _ := KindOf(pkt)
		return k == KindData
	}
	p = r.ports[1]
	p.ProvideN(2*msgs, 64)
	r.eng.Spawn("send", func(proc *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.ports[0].SendSync(proc, 1, 1, []byte{byte(i)})
		}
	})
	r.run(t)
	if got, dups := p.PendingRecvs(), r.counter(t, 1, "duplicates"); got != msgs || dups != msgs || p.RecvTokens() != msgs || len(p.asms) != 0 {
		t.Errorf("%d messages delivered, %d duplicates refused, %d tokens left, %d assemblies tabled; want %d, %d, %d, 0",
			got, dups, p.RecvTokens(), len(p.asms), msgs, msgs, msgs)
	}
}

// Posted tokens are runs of (capacity, count): equal tokens are one run,
// a match takes the smallest capacity that admits the message, and
// RecvTokens counts every token, whichever way it was posted.
func TestTokenRuns(t *testing.T) {
	type op struct {
		post, capacity int // post this many tokens of capacity (1 through Provide)...
		msg            int // ...or, with post 0, match a message this long
		ok             bool
		tokens         int // RecvTokens afterwards
	}
	post := func(n, capacity, tokens int) op { return op{post: n, capacity: capacity, tokens: tokens} }
	match := func(msg int, ok bool, tokens int) op { return op{msg: msg, ok: ok, tokens: tokens} }
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"equal capacities are one run", []op{
			post(3, 64, 3), post(1, 64, 4),
			match(64, true, 3), match(1, true, 2), match(64, true, 1), match(0, true, 0),
			match(1, false, 0),
		}},
		{"best fit across runs", []op{
			post(1, 1024, 1), post(2, 64, 3), post(1, 256, 4),
			match(100, true, 3), // the 256 B token
			match(100, true, 2), // the 1 KB one
			match(65, false, 2), // the 64 B ones are too small
			match(64, true, 1), match(1, true, 0), match(1, false, 0),
		}},
		{"a run emptied and posted again", []op{
			post(1, 64, 1), match(64, true, 0), match(64, false, 0),
			post(2, 64, 2), post(1, 32, 3), match(40, true, 2), match(20, true, 1), match(33, true, 0),
		}},
		{"runs posted out of capacity order", []op{
			post(2, 4096, 2), post(1, 16, 3), post(4, 512, 7), post(1, 128, 8),
			match(4097, false, 8), match(4096, true, 7), match(17, true, 6), // the 128 B token
			match(129, true, 5), match(16, true, 4), match(16, true, 3), // a 512 B token: 16 B is gone
			match(500, true, 2), match(500, true, 1),
			match(500, true, 0), // no 512 B token is left: the 4 KB one
			match(4000, false, 0),
		}},
		{"posting none posts nothing", []op{post(0, 64, 0), post(-3, 64, 0), match(1, false, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newRig(t, 2, nil).ports[1]
			for i, o := range tc.ops {
				switch {
				case o.post == 1:
					p.Provide(o.capacity)
				case o.post != 0 || o.capacity != 0:
					p.ProvideN(o.post, o.capacity)
				default:
					asm, ok := p.MatchAssembly(0, &Frame{SrcPort: 1, MsgID: uint64(i + 1), MsgLen: o.msg})
					if ok != o.ok {
						t.Fatalf("op %d: a %d-byte message matched %v, want %v", i, o.msg, ok, o.ok)
					}
					if ok && asm.MsgLen() != o.msg {
						t.Fatalf("op %d: a %d-byte message is assembled as %d", i, o.msg, asm.MsgLen())
					}
				}
				if got := p.RecvTokens(); got != o.tokens {
					t.Fatalf("op %d: %d tokens posted, want %d", i, got, o.tokens)
				}
			}
		})
	}
}

// ProvideN past RecvTokensMax panics and posts none of the batch.
func TestProvideNPastCapPostsNone(t *testing.T) {
	p := newRig(t, 2, func(c *Config) { c.RecvTokensMax = 4 }).ports[1]
	p.ProvideN(3, 64)
	if err := recoverErr(t, func() { p.ProvideN(2, 64) }); !errors.Is(err, ErrTokenExhausted) {
		t.Fatalf("ProvideN past the cap: got %v, want ErrTokenExhausted", err)
	}
	if got := p.RecvTokens(); got != 3 {
		t.Fatalf("%d tokens posted after a refused batch, want 3", got)
	}
	p.ProvideN(1, 64)
}

// A match is a binary search over the capacity runs and a take from the
// spares bucketed by size class: its cost does not grow with the number of
// tokens posted (the list it replaced was scanned, and shifted, per match).
// Each iteration matches a whole-message packet, gives the assembly back and
// posts the claimed token again.
func BenchmarkMatchAssemblyManyTokens(b *testing.B) {
	for _, tokens := range []int{10, 1000} {
		b.Run(fmt.Sprintf("tokens=%d", tokens), func(b *testing.B) {
			p := newRig(b, 2, nil).ports[1]
			capacity := func(i int) int { return 64 << (i % 8) } // 64 B .. 8 KB
			for i := range tokens {
				p.Provide(capacity(i))
			}
			payload := make([]byte, 16<<10)
			fr := &Frame{SrcPort: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				c := capacity(i)
				fr.MsgID, fr.MsgLen, fr.Payload = uint64(i), c-i%7, payload[:c-i%7]
				a, ok := p.MatchAssembly(0, fr)
				if !ok {
					b.Fatalf("a %d-byte message matched no token", fr.MsgLen)
				}
				p.spare(a)
				p.Provide(c)
			}
		})
	}
}
