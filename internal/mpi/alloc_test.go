//go:build !race

package mpi

import "testing"

// Counts, not time (the race detector allocates on its own).

// With no send outstanding every envelope buffer a rank has handed out is
// spare again, so a warm rank encodes a control word and an EagerMax
// message without allocating, and the word does not take the large buffer.
func TestAllocEnvelopeReusesSendBuffers(t *testing.T) {
	r := newWorld(t, 2, false).ranks[0]
	word, msg := pattern(4), pattern(EagerMax)
	e := envelope{kEager, 1}
	encode := func() {
		if b := r.encodeEnvelope(e, word); cap(b) != envelopeBytes+len(word) {
			t.Fatalf("a %d-byte envelope landed in a %d-byte buffer", len(b), cap(b))
		}
		r.encodeEnvelope(e, msg)
	}
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("a warm rank allocates %.1f objects to encode two envelopes, want 0", allocs)
	}
}
