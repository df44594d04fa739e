// Package tree constructs multicast spanning trees: the binomial tree the
// traditional host-based broadcast uses, and the latency-optimal tree of
// Bar-Noy & Kipnis's postal model that the paper's NIC-based multicast
// uses. All constructions first sort destinations by network ID and keep
// every child's ID greater than its parent's (unless the parent is the
// root) — the paper's deadlock-avoidance rule for receive-token cycles.
package tree

import (
	"container/heap"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Tree is a rooted multicast spanning tree. Children of each node are
// ordered: the first child is sent to first. A Tree's shape is immutable
// once its constructor returns (its arrays are private), so one tree is
// shared by every member of a group, also across shard goroutines, and is
// validated once however many members install it. The slices Children and
// Nodes return are the tree's own; do not modify them.
//
// The shape is flat arrays indexed by a member's position in nodes (index
// finds it by binary search): parent positions, and the child lists in one
// shared array with the offset of each member's list.
type Tree struct {
	Root  fabric.NodeID
	nodes []fabric.NodeID // all members, root first, then sorted
	// parent[i] is the position of nodes[i]'s parent: -1 for the root, and
	// for a member whose parent is not one (FromParents of an unsound
	// relation, which Validate rejects).
	parent []int32
	// kids holds every child list in send order, grouped by parent
	// position: nodes[i]'s children are kids[first[i]:first[i+1]], the
	// last list ending at len(kids).
	kids  []fabric.NodeID
	first []int32

	validated sync.Once
	verdict   error // check's result, written once under validated
}

// newTree starts a tree over nodes (root first, then the sorted
// destinations) with no edges; link adds them and finish lays out the
// child lists.
func newTree(nodes []fabric.NodeID) *Tree {
	t := &Tree{Root: nodes[0], nodes: nodes, parent: make([]int32, len(nodes))}
	for i := range t.parent {
		t.parent[i] = -1
	}
	return t
}

// sortedMembers validates the member list and returns it root first, then
// the destinations sorted by network ID — "we sort the list of destinations
// linearly by their network IDs before tree construction".
func sortedMembers(root fabric.NodeID, members []fabric.NodeID) []fabric.NodeID {
	size := len(members) + 1
	if slices.Contains(members, root) {
		size--
	}
	nodes := append(make([]fabric.NodeID, 0, size), root)
	for _, m := range members {
		if m != root {
			nodes = append(nodes, m)
		}
	}
	dests := nodes[1:]
	slices.Sort(dests)
	for i := 1; i < len(dests); i++ {
		if dests[i] == dests[i-1] {
			panic(fmt.Sprintf("tree: duplicate member %v", dests[i]))
		}
	}
	return nodes
}

// link makes the member at position child a child of the one at position
// parent (-1: no member).
func (t *Tree) link(parent, child int) { t.parent[child] = int32(parent) }

// finish lays the child lists out from the parent positions, each list in
// ascending position: every constructor links children in ascending ID
// order, so that is the order they were linked in.
func (t *Tree) finish() {
	// Count each member's children into first, turn the counts into end
	// offsets, fill each list backwards from its end so first is left
	// holding the starts.
	t.first = make([]int32, len(t.nodes))
	edges := 0
	for _, p := range t.parent {
		if p >= 0 {
			t.first[p]++
			edges++
		}
	}
	end := int32(0)
	for i, n := range t.first {
		end += n
		t.first[i] = end
	}
	t.kids = make([]fabric.NodeID, edges)
	for c := len(t.parent) - 1; c >= 0; c-- {
		if p := t.parent[c]; p >= 0 {
			t.first[p]--
			t.kids[t.first[p]] = t.nodes[c]
		}
	}
}

// childrenAt returns the children of the member at position i.
func (t *Tree) childrenAt(i int) []fabric.NodeID {
	lo, hi := int(t.first[i]), len(t.kids)
	if i+1 < len(t.first) {
		hi = int(t.first[i+1])
	}
	return t.kids[lo:hi:hi]
}

// Children returns a node's children in send order.
func (t *Tree) Children(n fabric.NodeID) []fabric.NodeID {
	i := t.index(n)
	if i < 0 {
		return nil
	}
	return t.childrenAt(i)
}

// Parent returns a node's parent; the root reports ok=false.
func (t *Tree) Parent(n fabric.NodeID) (fabric.NodeID, bool) {
	if i := t.index(n); i > 0 && t.parent[i] >= 0 {
		return t.nodes[t.parent[i]], true
	}
	return 0, false
}

// Nodes returns all members (root first, destinations in sorted order).
func (t *Tree) Nodes() []fabric.NodeID { return t.nodes }

// Size reports the member count including the root.
func (t *Tree) Size() int { return len(t.nodes) }

// Depth reports the longest root-to-leaf path length in edges.
func (t *Tree) Depth() int {
	var walk func(i int) int
	walk = func(i int) int {
		d := 0
		for _, c := range t.childrenAt(i) {
			d = max(d, walk(t.index(c))+1)
		}
		return d
	}
	return walk(0)
}

// MaxFanout reports the largest child count of any node.
func (t *Tree) MaxFanout() int {
	most := 0
	for i := range t.nodes {
		most = max(most, len(t.childrenAt(i)))
	}
	return most
}

// Leaves returns all members with no children.
func (t *Tree) Leaves() []fabric.NodeID {
	var out []fabric.NodeID
	for i, n := range t.nodes {
		if len(t.childrenAt(i)) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks structural soundness and the deadlock-avoidance
// invariant: every member except the root has exactly one parent, the
// graph is a single tree, and each child's network ID exceeds its parent's
// unless the parent is the root. The walk runs on the first call only; the
// tree cannot change afterwards, so every later call — one per member when
// a group is installed — returns the first call's verdict.
func (t *Tree) Validate() error {
	t.validated.Do(func() { t.verdict = t.check() })
	return t.verdict
}

// index reports n's position in t.nodes (root first, then the sorted
// destinations), or -1 when n is not a member.
func (t *Tree) index(n fabric.NodeID) int {
	if n == t.Root {
		return 0
	}
	if i, ok := slices.BinarySearch(t.nodes[1:], n); ok {
		return i + 1
	}
	return -1
}

// check walks the tree from the root with an explicit stack of positions,
// marking members in a slice parallel to t.nodes.
func (t *Tree) check() error {
	seen := make([]bool, len(t.nodes))
	seen[0] = true
	reached := 1
	stack := append(make([]int, 0, len(t.nodes)), 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.nodes[i]
		for _, c := range t.childrenAt(i) {
			j := t.index(c)
			if j < 0 {
				return fmt.Errorf("tree: child %v of %v is not a member", c, n)
			}
			if int(t.parent[j]) != i {
				return fmt.Errorf("tree: child %v has inconsistent parent", c)
			}
			if n != t.Root && c <= n {
				return fmt.Errorf("tree: child %v not greater than non-root parent %v", c, n)
			}
			if seen[j] {
				return fmt.Errorf("tree: node %v reached twice (cycle or diamond)", c)
			}
			seen[j] = true
			reached++
			stack = append(stack, j)
		}
	}
	if reached != len(t.nodes) {
		return fmt.Errorf("tree: reached %d of %d members", reached, len(t.nodes))
	}
	return nil
}

// String renders the tree as an indented outline.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		fmt.Fprintf(&b, "%s%v\n", strings.Repeat("  ", depth), t.nodes[i])
		for _, c := range t.childrenAt(i) {
			walk(t.index(c), depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

// Binomial builds the binomial spanning tree the traditional host-based
// broadcast uses, over the sorted destination list so parent/child IDs
// satisfy the deadlock-avoidance ordering.
func Binomial(root fabric.NodeID, members []fabric.NodeID) *Tree {
	t := newTree(sortedMembers(root, members))
	// Position 0 is the root; 1..n-1 are the sorted destinations. The
	// parent of i clears i's lowest set bit.
	for i := 1; i < len(t.nodes); i++ {
		t.link(i&(i-1), i)
	}
	t.finish()
	// Binomial send order: each parent sends to its farthest subtree
	// first (largest stride). The lists come out nearest-first; reverse
	// each to match the conventional schedule.
	for i := range t.nodes {
		slices.Reverse(t.childrenAt(i))
	}
	return t
}

// Chain builds a linear pipeline tree (each node forwards to the next
// sorted destination) — useful in tests and as a degenerate shape.
func Chain(root fabric.NodeID, members []fabric.NodeID) *Tree {
	t := newTree(sortedMembers(root, members))
	for i := 1; i < len(t.nodes); i++ {
		t.link(i-1, i)
	}
	t.finish()
	return t
}

// Flat builds a one-level tree: the root sends to every destination
// directly. This is the shape of the paper's multisend experiments.
func Flat(root fabric.NodeID, members []fabric.NodeID) *Tree {
	t := newTree(sortedMembers(root, members))
	for i := 1; i < len(t.nodes); i++ {
		t.link(0, i)
	}
	t.finish()
	return t
}

// KAry builds a balanced k-ary tree over the sorted destinations in heap
// layout (node at index i parents indices k·i+1 … k·i+k), so parent
// indices precede child indices and the ID-sorting invariant holds. Low
// fan-outs keep every node's injection link un-oversubscribed, which is
// what per-packet pipelined forwarding of multi-packet messages needs.
func KAry(root fabric.NodeID, members []fabric.NodeID, k int) *Tree {
	if k < 1 {
		panic("tree: k-ary fanout must be >= 1")
	}
	t := newTree(sortedMembers(root, members))
	for i := 1; i < len(t.nodes); i++ {
		t.link((i-1)/k, i)
	}
	t.finish()
	return t
}

// FromParents rebuilds a tree from its parent relation, attaching each
// node's children in ascending ID order. Trees whose construction emits
// children in ascending order per sender (Optimal, Chain, Flat) round-trip
// exactly; use it to decode trees shipped over the wire. A relation that
// is not a sound tree still yields a Tree; its Validate reports why.
func FromParents(root fabric.NodeID, parents map[fabric.NodeID]fabric.NodeID) *Tree {
	members := make([]fabric.NodeID, 0, len(parents))
	for n := range parents {
		members = append(members, n)
	}
	t := newTree(sortedMembers(root, members))
	for _, d := range t.nodes[1:] {
		p, ok := parents[d]
		if !ok {
			panic(fmt.Sprintf("tree: member %v has no parent", d))
		}
		t.link(t.index(p), t.index(d))
	}
	t.finish()
	return t
}

// Incremental rebuilds a spanning tree after membership churn, reusing
// every edge of prev whose endpoints both survive into the new membership
// and whose orientation still satisfies the deadlock invariant under the
// new root. Orphans (nodes whose old parent left) and new joiners attach
// greedily to the eligible member with the fewest children — preferring
// members below maxFanout (<= 0 means unbounded), breaking ties toward
// the lowest ID — so a single join or leave perturbs only the subtrees it
// must. A nil prev builds the greedy tree from scratch. Children attach
// in ascending ID order, so the result round-trips exactly through
// Parents/FromParents (the wire form the membership protocol ships).
func Incremental(prev *Tree, root fabric.NodeID, members []fabric.NodeID, maxFanout int) *Tree {
	t := newTree(sortedMembers(root, members))
	dests := t.nodes[1:]
	// fanout counts the children attached so far, by position.
	fanout := make([]int, len(t.nodes))

	// First pass: carry surviving edges over. The parent must survive, and
	// the edge must still be legal: any child under the (new) root, else
	// strictly ID-increasing. The old root, a joiner and an orphan keep no
	// edge.
	if prev != nil {
		for i, d := range dests {
			p, ok := prev.Parent(d)
			if !ok {
				continue // the old root, or not in the old tree: a joiner
			}
			pi := t.index(p)
			if pi < 0 || (p != root && p >= d) {
				continue // parent departed, or edge now violates ordering
			}
			t.link(pi, i+1)
			fanout[pi]++
		}
	}

	// Second pass: attach orphans and joiners in ascending ID order, each
	// to the least-loaded eligible member (root, or any member with a
	// smaller ID — the invariant guarantees candidates exist).
	for i := 1; i < len(t.nodes); i++ {
		if t.parent[i] >= 0 {
			continue
		}
		best := 0
		bestLoad := fanout[0]
		bestFull := maxFanout > 0 && bestLoad >= maxFanout
		for c := 1; c < i; c++ { // dests ascending: no further candidates
			load := fanout[c]
			full := maxFanout > 0 && load >= maxFanout
			// Prefer any under-fanout candidate to a full one; among
			// equals, fewest children, then lowest ID (iteration order).
			if (bestFull && !full) || (bestFull == full && load < bestLoad) {
				best, bestLoad, bestFull = c, load, full
			}
		}
		t.link(best, i)
		fanout[best]++
	}
	t.finish()
	return t
}

// SharedEdges counts the parent→child edges two trees have in common —
// how much of a rebuilt tree Incremental actually reused.
func SharedEdges(a, b *Tree) int {
	if a == nil || b == nil {
		return 0
	}
	n := 0
	for _, c := range a.nodes {
		if p, ok := a.Parent(c); ok {
			if q, ok := b.Parent(c); ok && q == p {
				n++
			}
		}
	}
	return n
}

// Parents returns the tree's parent relation, the wire-portable form,
// built on each call.
func (t *Tree) Parents() map[fabric.NodeID]fabric.NodeID {
	out := make(map[fabric.NodeID]fabric.NodeID, len(t.nodes)-1)
	for i, p := range t.parent {
		if p >= 0 {
			out[t.nodes[i]] = t.nodes[p]
		}
	}
	return out
}

// PostalParams characterize one hop of the postal model for a given
// message size: Lambda is the end-to-end delivery time (send call until
// the receiver can itself forward), Gap the extra time a sender spends per
// additional destination. The paper computes the fan-out ratio from
// exactly these two quantities.
type PostalParams struct {
	Lambda sim.Time
	Gap    sim.Time
}

// Ratio reports Lambda/Gap, the average fan-out degree of the optimal tree.
func (p PostalParams) Ratio() float64 {
	if p.Gap <= 0 {
		return float64(p.Lambda)
	}
	return float64(p.Lambda) / float64(p.Gap)
}

// senderHeap orders senders by the time they can emit their next copy,
// breaking ties toward the earliest-joined sender for determinism. A
// sender is a member position, so the one that joined first has the
// lowest.
type sender struct {
	node  int
	ready sim.Time
}

type senderHeap []*sender

func (h senderHeap) Len() int { return len(h) }
func (h senderHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].node < h[j].node
}
func (h senderHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *senderHeap) Push(x any)   { *h = append(*h, x.(*sender)) }
func (h *senderHeap) Pop() any     { old := *h; n := len(old); s := old[n-1]; *h = old[:n-1]; return s }

// Optimal builds the latency-optimal broadcast tree of Bar-Noy and Kipnis:
// destinations are assigned, in sorted order, to whichever member can emit
// the next copy earliest; a node that received the message at time t joins
// the sender pool ready at t. The result maximizes the number of nodes
// sending at any time. Large Lambda/Gap produces wide shallow trees (small
// messages on a NIC-based multisend); a ratio near 1 degenerates toward a
// binomial shape, exactly as Section 6.1 of the paper observes.
func Optimal(root fabric.NodeID, members []fabric.NodeID, pp PostalParams) *Tree {
	if pp.Lambda <= 0 {
		panic("tree: postal Lambda must be positive")
	}
	if pp.Gap <= 0 {
		pp.Gap = 1
	}
	if pp.Gap > pp.Lambda {
		// A sender is always ready again by the time its copy lands.
		pp.Lambda = pp.Gap
	}
	t := newTree(sortedMembers(root, members))
	h := &senderHeap{{node: 0, ready: 0}}
	heap.Init(h)
	for i := 1; i < len(t.nodes); i++ {
		s := heap.Pop(h).(*sender)
		t.link(s.node, i)
		emit := s.ready
		s.ready = emit + pp.Gap
		heap.Push(h, s)
		heap.Push(h, &sender{node: i, ready: emit + pp.Lambda})
	}
	t.finish()
	return t
}
