package coll

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/tree"
)

// The tree barrier's neighbourhood is computed from a member's index; it
// must be the one tree.Binomial links over the same sorted list, children
// in the same send order.
func TestBinomialNeighborsMatchTree(t *testing.T) {
	for n := 1; n <= 70; n++ {
		members := make([]fabric.NodeID, n)
		for i := range members {
			members[i] = fabric.NodeID(3 + 5*i) // sparse, first member not 0
		}
		tr := tree.Binomial(members[0], members)
		for i, m := range members {
			parent, children := binomialNeighbors(members, i)
			want, ok := tr.Parent(m)
			if !ok {
				want = m // the root is its own parent
			}
			if parent != want {
				t.Fatalf("n=%d: parent of %v is %v, tree says %v", n, m, parent, want)
			}
			if wantCh := tr.Children(m); len(children)+len(wantCh) > 0 && !reflect.DeepEqual(children, wantCh) {
				t.Fatalf("n=%d: children of %v are %v, tree says %v", n, m, children, wantCh)
			}
		}
	}
}
