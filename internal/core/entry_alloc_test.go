//go:build !race

package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/tree"
)

// entryBytes reports the heap bytes one group-table entry for tr costs at
// e's NIC: everything localView makes, plus the entry's slot in the table.
func entryBytes(e *Ext, tr *tree.Tree) float64 {
	const entries = 1000
	keep := make([]*group, 0, entries)
	var slot tableSlot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range entries {
		keep = append(keep, localView(e, 1, tr, 1, 1))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(after.TotalAlloc-before.TotalAlloc)/entries + float64(unsafe.Sizeof(slot))
}

// Half the members of a binomial tree are leaves, and more of a wider one,
// and a leaf needs only the receive side: its entry has no send window,
// retransmit timer, bound callbacks or ack hold, and its child list is the
// tree's own. All its objects and its table slot come to at most 160 B;
// measured the same way, a leaf carrying the sender side cost 480 B.
func TestAllocLeafGroupEntry(t *testing.T) {
	r := newCoreRig(t, 4, nil)
	t.Cleanup(r.eng.Kill)
	tr := tree.KAry(0, []fabric.NodeID{0, 1, 2, 3}, 2) // 0 → 1, 2; 1 → 3
	leaf, interior := entryBytes(r.exts[3], tr), entryBytes(r.exts[1], tr)
	t.Logf("group entry: leaf %.0f B, interior %.0f B", leaf, interior)
	if leaf > 160 {
		t.Errorf("a leaf's group entry costs %.0f B, want at most 160", leaf)
	}
	if interior <= leaf {
		t.Errorf("an interior entry costs %.0f B, no more than a leaf's %.0f B: no sender side made", interior, leaf)
	}
}
