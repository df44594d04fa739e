//go:build !race

package metrics

import "testing"

// Counts, not time (the race detector allocates on its own).

// Attaching a block allocates the block and nothing per instrument: the
// registry's entry is a slot of a chunk (one allocation per entryChunk
// entries) and, for a node's first block, a slot of a map that grows by
// doubling, so over many keys the average is the block alone plus a
// fraction. Re-attaching a filed key finds it and allocates nothing.
func TestAllocAttachIsOneEntry(t *testing.T) {
	r := New()
	node := 0
	fresh := testing.AllocsPerRun(2000, func() {
		Attach[nicBlock](r, "gm", node)
		node++
	})
	if fresh > 1.5 {
		t.Errorf("attaching a new key allocates %.2f objects, want the block alone (1, plus amortized growth)", fresh)
	}
	first := Attach[nicBlock](r, "gm", 7)
	again := testing.AllocsPerRun(100, func() {
		if Attach[nicBlock](r, "gm", 7) != first {
			t.Fatal("re-attaching returned another block")
		}
	})
	if again != 0 {
		t.Errorf("re-attaching a filed key allocates %.0f objects, want 0", again)
	}
	if lone := testing.AllocsPerRun(100, func() { Attach[nicBlock](nil, "gm", 7) }); lone != 1 {
		t.Errorf("a block with no registry allocates %.0f objects, want 1", lone)
	}
}
