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
	"sort"
	"strings"
	"sync"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Tree is a rooted multicast spanning tree. Children of each node are
// ordered: the first child is sent to first. A Tree's shape is immutable
// once its constructor returns (link is private), so one tree is shared by
// every member of a group, also across shard goroutines, and is validated
// once however many members install it. The slices Children and Nodes
// return are the tree's own; do not modify them.
type Tree struct {
	Root     fabric.NodeID
	children map[fabric.NodeID][]fabric.NodeID
	parent   map[fabric.NodeID]fabric.NodeID
	nodes    []fabric.NodeID // all members, root first, then sorted

	validated sync.Once
	verdict   error // check's result, written once under validated
}

func newTree(root fabric.NodeID, dests []fabric.NodeID) *Tree {
	t := &Tree{
		Root:     root,
		children: make(map[fabric.NodeID][]fabric.NodeID, len(dests)+1),
		parent:   make(map[fabric.NodeID]fabric.NodeID, len(dests)),
		nodes:    append([]fabric.NodeID{root}, dests...),
	}
	return t
}

// sortedDests validates and returns the destination set sorted by network
// ID with the root removed — "we sort the list of destinations linearly by
// their network IDs before tree construction".
func sortedDests(root fabric.NodeID, members []fabric.NodeID) []fabric.NodeID {
	seen := map[fabric.NodeID]bool{root: true}
	dests := make([]fabric.NodeID, 0, len(members))
	for _, m := range members {
		if m == root {
			continue
		}
		if seen[m] {
			panic(fmt.Sprintf("tree: duplicate member %v", m))
		}
		seen[m] = true
		dests = append(dests, m)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	return dests
}

func (t *Tree) link(parent, child fabric.NodeID) {
	t.children[parent] = append(t.children[parent], child)
	t.parent[child] = parent
}

// Children returns a node's children in send order.
func (t *Tree) Children(n fabric.NodeID) []fabric.NodeID { return t.children[n] }

// Parent returns a node's parent; the root reports itself with ok=false.
func (t *Tree) Parent(n fabric.NodeID) (fabric.NodeID, bool) {
	p, ok := t.parent[n]
	return p, ok
}

// Nodes returns all members (root first, destinations in sorted order).
func (t *Tree) Nodes() []fabric.NodeID { return t.nodes }

// Size reports the member count including the root.
func (t *Tree) Size() int { return len(t.nodes) }

// Depth reports the longest root-to-leaf path length in edges.
func (t *Tree) Depth() int {
	var walk func(n fabric.NodeID) int
	walk = func(n fabric.NodeID) int {
		max := 0
		for _, c := range t.children[n] {
			if d := walk(c) + 1; d > max {
				max = d
			}
		}
		return max
	}
	return walk(t.Root)
}

// MaxFanout reports the largest child count of any node.
func (t *Tree) MaxFanout() int {
	max := 0
	for _, cs := range t.children {
		if len(cs) > max {
			max = len(cs)
		}
	}
	return max
}

// Leaves returns all members with no children.
func (t *Tree) Leaves() []fabric.NodeID {
	var out []fabric.NodeID
	for _, n := range t.nodes {
		if len(t.children[n]) == 0 {
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

// check walks the tree from the root with an explicit stack, marking
// members in a slice parallel to t.nodes.
func (t *Tree) check() error {
	seen := make([]bool, len(t.nodes))
	seen[0] = true
	reached := 1
	stack := append(make([]fabric.NodeID, 0, len(t.nodes)), t.Root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.children[n] {
			if p, ok := t.parent[c]; !ok || p != n {
				return fmt.Errorf("tree: child %v has inconsistent parent", c)
			}
			if n != t.Root && c <= n {
				return fmt.Errorf("tree: child %v not greater than non-root parent %v", c, n)
			}
			i := t.index(c)
			if i < 0 {
				return fmt.Errorf("tree: child %v of %v is not a member", c, n)
			}
			if seen[i] {
				return fmt.Errorf("tree: node %v reached twice (cycle or diamond)", c)
			}
			seen[i] = true
			reached++
			stack = append(stack, c)
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
	var walk func(n fabric.NodeID, depth int)
	walk = func(n fabric.NodeID, depth int) {
		fmt.Fprintf(&b, "%s%v\n", strings.Repeat("  ", depth), n)
		for _, c := range t.children[n] {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}

// Binomial builds the binomial spanning tree the traditional host-based
// broadcast uses, over the sorted destination list so parent/child IDs
// satisfy the deadlock-avoidance ordering.
func Binomial(root fabric.NodeID, members []fabric.NodeID) *Tree {
	dests := sortedDests(root, members)
	t := newTree(root, dests)
	// Index 0 is the root; indices 1..n-1 are the sorted destinations.
	at := func(i int) fabric.NodeID {
		if i == 0 {
			return root
		}
		return dests[i-1]
	}
	n := len(dests) + 1
	for i := 1; i < n; i++ {
		// Parent of i clears i's lowest set bit.
		p := i & (i - 1)
		t.link(at(p), at(i))
	}
	// Binomial send order: each parent sends to its farthest subtree
	// first (largest stride). The loop above appends nearest-first;
	// reverse each child list to match the conventional schedule.
	for k := range t.children {
		cs := t.children[k]
		for i, j := 0, len(cs)-1; i < j; i, j = i+1, j-1 {
			cs[i], cs[j] = cs[j], cs[i]
		}
	}
	return t
}

// Chain builds a linear pipeline tree (each node forwards to the next
// sorted destination) — useful in tests and as a degenerate shape.
func Chain(root fabric.NodeID, members []fabric.NodeID) *Tree {
	dests := sortedDests(root, members)
	t := newTree(root, dests)
	prev := root
	for _, d := range dests {
		t.link(prev, d)
		prev = d
	}
	return t
}

// Flat builds a one-level tree: the root sends to every destination
// directly. This is the shape of the paper's multisend experiments.
func Flat(root fabric.NodeID, members []fabric.NodeID) *Tree {
	dests := sortedDests(root, members)
	t := newTree(root, dests)
	for _, d := range dests {
		t.link(root, d)
	}
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
	dests := sortedDests(root, members)
	t := newTree(root, dests)
	at := func(i int) fabric.NodeID {
		if i == 0 {
			return root
		}
		return dests[i-1]
	}
	n := len(dests) + 1
	for i := 1; i < n; i++ {
		t.link(at((i-1)/k), at(i))
	}
	return t
}

// FromParents rebuilds a tree from its parent relation, attaching each
// node's children in ascending ID order. Trees whose construction emits
// children in ascending order per sender (Optimal, Chain, Flat) round-trip
// exactly; use it to decode trees shipped over the wire. A relation that
// is not a sound tree still yields a Tree; its Validate reports why.
func FromParents(root fabric.NodeID, parents map[fabric.NodeID]fabric.NodeID) *Tree {
	members := make([]fabric.NodeID, 0, len(parents)+1)
	members = append(members, root)
	for n := range parents {
		if n != root {
			members = append(members, n)
		}
	}
	dests := sortedDests(root, members)
	t := newTree(root, dests)
	for _, d := range dests { // ascending ID: children lists come out sorted
		p, ok := parents[d]
		if !ok {
			panic(fmt.Sprintf("tree: member %v has no parent", d))
		}
		t.link(p, d)
	}
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
	dests := sortedDests(root, members)
	member := make(map[fabric.NodeID]bool, len(dests)+1)
	member[root] = true
	for _, d := range dests {
		member[d] = true
	}

	// First pass: carry surviving edges over. The parent must survive, and
	// the edge must still be legal: any child under the (new) root, else
	// strictly ID-increasing.
	parents := make(map[fabric.NodeID]fabric.NodeID, len(dests))
	fanout := make(map[fabric.NodeID]int, len(dests)+1)
	if prev != nil {
		for _, d := range dests {
			p, ok := prev.parent[d]
			if !ok && d != prev.Root {
				continue // not in the old tree: a joiner
			}
			if d == prev.Root {
				continue // the old root needs a fresh attachment point
			}
			if !member[p] || (p != root && p >= d) {
				continue // parent departed, or edge now violates ordering
			}
			parents[d] = p
			fanout[p]++
		}
	}

	// Second pass: attach orphans and joiners in ascending ID order, each
	// to the least-loaded eligible member (root, or any member with a
	// smaller ID — the invariant guarantees candidates exist).
	for _, d := range dests {
		if _, ok := parents[d]; ok {
			continue
		}
		best := root
		bestLoad := fanout[root]
		bestFull := maxFanout > 0 && bestLoad >= maxFanout
		for _, c := range dests {
			if c >= d {
				break // dests ascending: no further candidates
			}
			load := fanout[c]
			full := maxFanout > 0 && load >= maxFanout
			// Prefer any under-fanout candidate to a full one; among
			// equals, fewest children, then lowest ID (iteration order).
			if (bestFull && !full) || (bestFull == full && load < bestLoad) {
				best, bestLoad, bestFull = c, load, full
			}
		}
		parents[d] = best
		fanout[best]++
	}

	t := newTree(root, dests)
	for _, d := range dests { // ascending: children lists come out sorted
		t.link(parents[d], d)
	}
	return t
}

// SharedEdges counts the parent→child edges two trees have in common —
// how much of a rebuilt tree Incremental actually reused.
func SharedEdges(a, b *Tree) int {
	if a == nil || b == nil {
		return 0
	}
	n := 0
	for c, p := range a.parent {
		if q, ok := b.parent[c]; ok && q == p {
			n++
		}
	}
	return n
}

// Parents returns the tree's parent relation, the wire-portable form.
func (t *Tree) Parents() map[fabric.NodeID]fabric.NodeID {
	out := make(map[fabric.NodeID]fabric.NodeID, len(t.parent))
	for c, p := range t.parent {
		out[c] = p
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
// breaking ties toward the earliest-joined sender for determinism.
type sender struct {
	node  fabric.NodeID
	ready sim.Time
	order int
}

type senderHeap []*sender

func (h senderHeap) Len() int { return len(h) }
func (h senderHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].order < h[j].order
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
	dests := sortedDests(root, members)
	t := newTree(root, dests)
	h := &senderHeap{{node: root, ready: 0, order: 0}}
	heap.Init(h)
	for i, d := range dests {
		s := heap.Pop(h).(*sender)
		t.link(s.node, d)
		emit := s.ready
		s.ready = emit + pp.Gap
		heap.Push(h, s)
		heap.Push(h, &sender{node: d, ready: emit + pp.Lambda, order: i + 1})
	}
	return t
}
