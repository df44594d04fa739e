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

// Matching is best-fit over the posted sizes, the claimed buffer has the
// token's full capacity, and a claimed token frees its slot under
// RecvTokensMax.
func TestMatchTakesSmallestFittingToken(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.RecvTokensMax = 4 })
	p := r.ports[1]
	for _, capacity := range []int{16 << 10, 64, 16 << 10, 256} {
		p.Provide(capacity)
	}
	if err := recoverErr(t, func() { p.Provide(64) }); !errors.Is(err, ErrTokenExhausted) {
		t.Fatalf("fifth token under RecvTokensMax=4: got %v, want ErrTokenExhausted", err)
	}
	for i, c := range []struct{ msgLen, wantCap int }{
		{32, 64},        // the eager message leaves both landing buffers alone
		{200, 256},      // so does the next one
		{300, 16 << 10}, // only now is a large buffer the smallest that fits
		{16 << 10, 16 << 10},
	} {
		asm, ok := p.MatchAssembly(0, 1, uint64(i+1), c.msgLen, 0)
		if !ok {
			t.Fatalf("message of %d bytes matched no token", c.msgLen)
		}
		if got := len(asm.Bytes()); got != c.wantCap {
			t.Errorf("message of %d bytes landed in a %d-byte buffer, want %d", c.msgLen, got, c.wantCap)
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
