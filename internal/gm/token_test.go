package gm

import (
	"errors"
	"runtime"
	"testing"
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
		asm, ok := p.MatchAssembly(0, 1, uint64(i+1), msgLen, 0)
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
	if _, ok := p.MatchAssembly(0, 1, 9, 1, 0); ok {
		t.Error("matched a message with no token posted")
	}
	p.Provide(64) // the claimed slots are free again
}
