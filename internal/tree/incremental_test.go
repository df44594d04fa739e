package tree

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestIncrementalFromScratchMatchesFanout(t *testing.T) {
	tr := Incremental(nil, 0, seq(9), 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 9 {
		t.Fatalf("size %d, want 9", tr.Size())
	}
	if f := tr.MaxFanout(); f > 2 {
		t.Fatalf("fanout %d exceeds the requested bound 2", f)
	}
}

func TestIncrementalJoinKeepsSurvivingEdges(t *testing.T) {
	base := Incremental(nil, 0, seq(8), 2)
	grown := Incremental(base, 0, seq(9), 2)
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}
	// A single join must not disturb any existing edge: all 7 old edges
	// survive and node 8 attaches somewhere.
	if shared := SharedEdges(base, grown); shared != 7 {
		t.Fatalf("join rebuilt the tree: only %d/7 old edges survive", shared)
	}
	if _, ok := grown.Parent(8); !ok {
		t.Fatal("joiner 8 not attached")
	}
}

func TestIncrementalLeaveOnlyReattachesOrphans(t *testing.T) {
	base := Incremental(nil, 0, seq(10), 2)
	left := fabric.NodeID(1) // an interior node with children
	members := make([]fabric.NodeID, 0, 9)
	for _, n := range base.Nodes() {
		if n != left {
			members = append(members, n)
		}
	}
	shrunk := Incremental(base, 0, members, 2)
	if err := shrunk.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := shrunk.Parent(left); ok || shrunk.Size() != 9 {
		t.Fatalf("departed node still present: size %d", shrunk.Size())
	}
	// Every edge not touching the departed node or its orphans survives.
	orphans := map[fabric.NodeID]bool{}
	for _, c := range base.Children(left) {
		orphans[c] = true
	}
	for _, n := range base.Nodes() {
		p, ok := base.Parent(n)
		if !ok || n == left || p == left || orphans[n] {
			continue
		}
		if q, ok := shrunk.Parent(n); !ok || q != p {
			t.Fatalf("untouched edge %d->%d rebuilt to parent %v", p, n, q)
		}
	}
}

// The wire protocol ships trees as parent maps; an Incremental tree must
// survive the round trip exactly, or coordinator and agents would hold
// different trees.
func TestIncrementalRoundTripsThroughParents(t *testing.T) {
	rng := sim.NewRNG(17)
	var tr *Tree
	members := map[fabric.NodeID]bool{0: true, 1: true, 2: true}
	for step := 0; step < 40; step++ {
		n := fabric.NodeID(1 + rng.Intn(11))
		if members[n] && len(members) > 2 {
			delete(members, n)
		} else {
			members[n] = true
		}
		list := make([]fabric.NodeID, 0, len(members))
		for m := range members {
			list = append(list, m)
		}
		tr = Incremental(tr, 0, list, 2)
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rt := FromParents(tr.Root, tr.Parents())
		// Both sides validated: the remembered verdict is part of a Tree.
		if err := rt.Validate(); err != nil {
			t.Fatalf("step %d: round-tripped tree: %v", step, err)
		}
		if !reflect.DeepEqual(tr, rt) {
			t.Fatalf("step %d: tree does not round-trip through Parents()", step)
		}
	}
}

// Property: for any membership evolution, Incremental yields a valid
// tree deterministically (the fanout bound is best-effort — carried
// edges can fill every eligible candidate — so it is not asserted here).
func TestIncrementalProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := sim.NewRNG(seed)
		var a, b *Tree
		members := []fabric.NodeID{0, 3, 5}
		for i := 0; i < int(steps)%20+1; i++ {
			n := fabric.NodeID(1 + rng.Intn(15))
			found := -1
			for j, m := range members {
				if m == n {
					found = j
				}
			}
			if found >= 0 && len(members) > 2 {
				members = append(members[:found], members[found+1:]...)
			} else if found < 0 {
				members = append(members, n)
			}
			a = Incremental(a, 0, members, 3)
			b = Incremental(b, 0, members, 3)
			if a.Validate() != nil || b.Validate() != nil {
				return false
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
