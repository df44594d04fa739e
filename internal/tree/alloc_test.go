//go:build !race

package tree

import (
	"runtime"
	"testing"
)

// Counts, not time (the race detector allocates on its own).

// A tree is shared by every member of its group, but a run holds one per
// group, so its shape is heap per member. A 2 048-member binomial tree is
// five objects: the header, the sorted member list Nodes returns (8 B a
// member), the child lists Children returns views of (8 B a child) and two
// int32 positions per member (its parent, where its child list starts) —
// 24 B a member, 16 of them the shape beyond the member list. A child map
// and a parent map sized for every member held 134.5 B a member.
func TestAllocTreePerMember(t *testing.T) {
	const members, trees = 2048, 16
	ids := seq(members)
	keep := make([]*Tree, 0, trees)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range trees {
		keep = append(keep, Binomial(0, ids))
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / trees
	perMember := float64(after.TotalAlloc-before.TotalAlloc) / trees / members
	t.Logf("a %d-member binomial tree: %.1f objects, %.2f B per member", members, objects, perMember)
	if objects > 5 {
		t.Errorf("a tree allocates %.1f objects, want 5", objects)
	}
	// The header (one 144-byte object) is 0.07 B a member here.
	if shape := perMember - 8; shape > 16.1 {
		t.Errorf("beyond its 8-byte member list a tree costs %.2f B per member, want at most 16", shape)
	}
	runtime.KeepAlive(keep)
}
