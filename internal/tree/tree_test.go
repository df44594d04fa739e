package tree

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func ids(ns ...int) []fabric.NodeID {
	out := make([]fabric.NodeID, len(ns))
	for i, n := range ns {
		out[i] = fabric.NodeID(n)
	}
	return out
}

func seq(n int) []fabric.NodeID {
	out := make([]fabric.NodeID, n)
	for i := range out {
		out[i] = fabric.NodeID(i)
	}
	return out
}

func TestBinomialShape16(t *testing.T) {
	b := Binomial(0, seq(16))
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := b.Depth(); d != 4 {
		t.Errorf("16-node binomial depth %d, want 4", d)
	}
	if f := b.MaxFanout(); f != 4 {
		t.Errorf("16-node binomial root fanout %d, want 4", f)
	}
	if got := len(b.Children(0)); got != 4 {
		t.Errorf("root has %d children, want 4", got)
	}
}

func TestBinomialNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 12, 13} {
		b := Binomial(0, seq(n))
		if err := b.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b.Size() != n {
			t.Fatalf("n=%d: size %d", n, b.Size())
		}
	}
}

func TestBinomialArbitraryRoot(t *testing.T) {
	b := Binomial(5, seq(16))
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Root != 5 {
		t.Fatalf("root %v, want 5", b.Root)
	}
	if _, ok := b.Parent(5); ok {
		t.Fatal("root has a parent")
	}
}

func TestChain(t *testing.T) {
	c := Chain(2, ids(2, 7, 4, 9))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 3 {
		t.Fatalf("chain depth %d, want 3", c.Depth())
	}
	if c.MaxFanout() != 1 {
		t.Fatalf("chain fanout %d, want 1", c.MaxFanout())
	}
	// Sorted order: 2 -> 4 -> 7 -> 9.
	if got := c.Children(2); len(got) != 1 || got[0] != 4 {
		t.Fatalf("chain first hop %v, want [4]", got)
	}
}

func TestFlat(t *testing.T) {
	f := Flat(0, seq(9))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Depth() != 1 {
		t.Fatalf("flat depth %d, want 1", f.Depth())
	}
	if len(f.Children(0)) != 8 {
		t.Fatalf("flat root has %d children, want 8", len(f.Children(0)))
	}
}

func TestOptimalLargeRatioIsShallow(t *testing.T) {
	// Lambda >> Gap: the root can spray all destinations before the first
	// child is even ready; tree is nearly flat.
	o := Optimal(0, seq(16), PostalParams{Lambda: sim.Micros(10), Gap: sim.Micros(0.7)})
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := o.Depth(); d > 2 {
		t.Errorf("high-ratio optimal tree depth %d, want <= 2\n%s", d, o)
	}
	if f := len(o.Children(0)); f < 8 {
		t.Errorf("high-ratio optimal root fanout %d, want >= 8", f)
	}
}

func TestOptimalUnitRatioResemblesBinomial(t *testing.T) {
	// Lambda == Gap: every sender alternates, doubling the informed set —
	// exactly a binomial schedule ("the shape of the resulting optimal
	// tree is not significantly different from the binomial tree").
	o := Optimal(0, seq(16), PostalParams{Lambda: sim.Micros(5), Gap: sim.Micros(5)})
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	b := Binomial(0, seq(16))
	if o.Depth() != b.Depth() {
		t.Errorf("unit-ratio optimal depth %d, binomial %d", o.Depth(), b.Depth())
	}
	if len(o.Children(0)) != len(b.Children(0)) {
		t.Errorf("unit-ratio optimal root fanout %d, binomial %d",
			len(o.Children(0)), len(b.Children(0)))
	}
}

func TestOptimalDepthMonotoneInRatio(t *testing.T) {
	// A smaller Lambda/Gap ratio (costlier per-destination sends) must
	// never produce a shallower tree: depth is non-decreasing in gap.
	prev := 0
	for _, gapUs := range []float64{0.5, 1, 2, 5, 10} {
		o := Optimal(0, seq(64), PostalParams{Lambda: sim.Micros(10), Gap: sim.Micros(gapUs)})
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		if o.Depth() < prev {
			t.Fatalf("depth %d with gap %vus is shallower than depth %d with a smaller gap",
				o.Depth(), gapUs, prev)
		}
		prev = o.Depth()
	}
}

func TestOptimalFinishTimeBeatsBinomial(t *testing.T) {
	// Simulate both schedules under the postal model and compare the time
	// the last node is informed. With ratio > 1 the optimal tree must win
	// (or tie); this is the entire reason the NIC-based multicast re-shapes
	// the tree for small messages.
	pp := PostalParams{Lambda: sim.Micros(8), Gap: sim.Micros(1)}
	finish := func(tr *Tree) sim.Time {
		var worst sim.Time
		var walk func(n fabric.NodeID, ready sim.Time)
		walk = func(n fabric.NodeID, ready sim.Time) {
			if ready > worst {
				worst = ready
			}
			emit := ready
			for _, c := range tr.Children(n) {
				walk(c, emit+pp.Lambda)
				emit += pp.Gap
			}
		}
		walk(tr.Root, 0)
		return worst
	}
	opt := finish(Optimal(0, seq(16), pp))
	bin := finish(Binomial(0, seq(16)))
	if opt > bin {
		t.Fatalf("optimal tree finishes at %v, later than binomial %v", opt, bin)
	}
	if opt == bin {
		t.Logf("optimal == binomial at %v (acceptable tie)", opt)
	}
}

func TestSortedDestsRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate member did not panic")
		}
	}()
	Binomial(0, ids(0, 1, 1))
}

func TestRootOnlyTree(t *testing.T) {
	b := Binomial(3, ids(3))
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 1 || b.Depth() != 0 {
		t.Fatalf("singleton tree size=%d depth=%d", b.Size(), b.Depth())
	}
}

func TestTwoNodeTrees(t *testing.T) {
	for _, build := range []func() *Tree{
		func() *Tree { return Binomial(1, ids(1, 9)) },
		func() *Tree { return Chain(1, ids(1, 9)) },
		func() *Tree { return Flat(1, ids(1, 9)) },
		func() *Tree { return Optimal(1, ids(1, 9), PostalParams{Lambda: 10, Gap: 1}) },
	} {
		tr := build()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(tr.Children(1)) != 1 || tr.Children(1)[0] != 9 {
			t.Fatalf("two-node tree wrong: %s", tr)
		}
	}
}

func TestLeaves(t *testing.T) {
	b := Binomial(0, seq(8))
	leaves := b.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("8-node binomial has %d leaves, want 4", len(leaves))
	}
	for _, l := range leaves {
		if len(b.Children(l)) != 0 {
			t.Fatalf("leaf %v has children", l)
		}
	}
}

// Property: all constructions over random member sets validate, include
// every member exactly once, and respect the ID-sorting invariant.
func TestConstructionProperty(t *testing.T) {
	f := func(raw []uint8, rootPick uint8, lamUs, gapUs uint8) bool {
		seen := map[fabric.NodeID]bool{}
		var members []fabric.NodeID
		for _, r := range raw {
			id := fabric.NodeID(r % 64)
			if !seen[id] {
				seen[id] = true
				members = append(members, id)
			}
		}
		if len(members) == 0 {
			return true
		}
		root := members[int(rootPick)%len(members)]
		pp := PostalParams{
			Lambda: sim.Micros(float64(lamUs%20) + 1),
			Gap:    sim.Micros(float64(gapUs%10) + 0.1),
		}
		for _, tr := range []*Tree{
			Binomial(root, members),
			Chain(root, members),
			Flat(root, members),
			Optimal(root, members, pp),
		} {
			if err := tr.Validate(); err != nil {
				t.Log(err)
				return false
			}
			if tr.Size() != len(members) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPostalRatio(t *testing.T) {
	pp := PostalParams{Lambda: 1000, Gap: 100}
	if r := pp.Ratio(); r != 10 {
		t.Fatalf("ratio = %v, want 10", r)
	}
}

func TestOptimalSendOrderMatchesSchedule(t *testing.T) {
	// The first child in each list must be the one sent to first —
	// the measurement harness picks "the leaf that hears last" from this.
	o := Optimal(0, seq(8), PostalParams{Lambda: sim.Micros(6), Gap: sim.Micros(1)})
	cs := o.Children(0)
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Fatalf("root children %v not in assignment order", cs)
		}
	}
}

func TestKAryShapes(t *testing.T) {
	for _, tc := range []struct {
		n, k, depth, fanout int
	}{
		{16, 2, 4, 2},
		{16, 3, 3, 3},
		{16, 15, 1, 15},
		{2, 1, 1, 1},
		{9, 2, 3, 2},
	} {
		tr := KAry(0, seq(tc.n), tc.k)
		if err := tr.Validate(); err != nil {
			t.Fatalf("k=%d n=%d: %v", tc.k, tc.n, err)
		}
		if d := tr.Depth(); d != tc.depth {
			t.Errorf("n=%d k=%d depth %d, want %d", tc.n, tc.k, d, tc.depth)
		}
		if f := tr.MaxFanout(); f != tc.fanout {
			t.Errorf("n=%d k=%d fanout %d, want %d", tc.n, tc.k, f, tc.fanout)
		}
	}
}

func TestKAryChainEqualsChain(t *testing.T) {
	k := KAry(0, seq(6), 1)
	c := Chain(0, seq(6))
	if k.Depth() != c.Depth() || k.MaxFanout() != 1 {
		t.Fatalf("1-ary tree is not a chain: depth %d fanout %d", k.Depth(), k.MaxFanout())
	}
}

func TestKAryInvalidFanoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	KAry(0, seq(4), 0)
}

func TestFromParentsRoundTrip(t *testing.T) {
	for _, build := range []func() *Tree{
		func() *Tree { return Chain(2, ids(2, 5, 9, 11)) },
		func() *Tree { return Flat(1, ids(1, 3, 4, 8)) },
		func() *Tree { return Optimal(0, seq(12), PostalParams{Lambda: 900, Gap: 100}) },
		func() *Tree { return KAry(0, seq(10), 2) },
	} {
		orig := build()
		back := FromParents(orig.Root, orig.Parents())
		if err := back.Validate(); err != nil {
			t.Fatal(err)
		}
		if back.Size() != orig.Size() || back.Depth() != orig.Depth() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.Size(), back.Depth(), orig.Size(), orig.Depth())
		}
		for _, n := range orig.Nodes() {
			op, ook := orig.Parent(n)
			bp, bok := back.Parent(n)
			if ook != bok || op != bp {
				t.Fatalf("node %v parent changed: %v/%v vs %v/%v", n, op, ook, bp, bok)
			}
		}
	}
}

func TestFromParentsForeignParentFailsValidation(t *testing.T) {
	// A parent that is not itself a member produces a disconnected tree,
	// which Validate (run by InstallGroup) must reject.
	tr := FromParents(0, map[fabric.NodeID]fabric.NodeID{5: 0, 7: 5, 9: 99})
	if err := tr.Validate(); err == nil {
		t.Fatal("disconnected parent relation passed validation")
	}
}

func TestNodesOrder(t *testing.T) {
	tr := Binomial(4, ids(9, 4, 1, 7))
	nodes := tr.Nodes()
	if nodes[0] != 4 {
		t.Fatalf("first node %v, want root 4", nodes[0])
	}
	for i := 2; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatalf("destinations not sorted: %v", nodes)
		}
	}
}

func TestStringRendersOutline(t *testing.T) {
	out := Chain(0, seq(3)).String()
	if out == "" {
		t.Fatal("empty rendering")
	}
	for _, want := range []string{"n0", "n1", "n2", "  "} {
		if !containsStr(out, want) {
			t.Fatalf("rendering %q missing %q", out, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRatioZeroGap(t *testing.T) {
	pp := PostalParams{Lambda: 500, Gap: 0}
	if pp.Ratio() != 500 {
		t.Fatalf("zero-gap ratio %v", pp.Ratio())
	}
}

func TestValidateCatchesForeignChild(t *testing.T) {
	tr := Binomial(0, seq(4))
	// Corrupt: make 2's one child, 3, a node that is not a member.
	tr.kids[tr.first[2]] = 99
	if err := tr.Validate(); err == nil {
		t.Fatal("validation accepted a foreign child")
	}
}

func TestValidateCatchesIDInversion(t *testing.T) {
	tr := Chain(0, seq(4))
	// Corrupt: make 3's parent 2's child list contain 1 (1 < 2, non-root).
	tr.kids[tr.first[2]] = 1
	tr.parent[1] = 2
	if err := tr.Validate(); err == nil {
		t.Fatal("validation accepted child <= non-root parent")
	}
}

// Every constructor yields a tree that validates, at a sparse-ID
// membership and a non-zero root.
func TestEveryConstructorValidates(t *testing.T) {
	members := ids(40, 3, 17, 8, 99, 1000, 21, 5)
	const root = 17
	base := Optimal(root, members, PostalParams{Lambda: 700, Gap: 100})
	for name, tr := range map[string]*Tree{
		"Binomial":    Binomial(root, members),
		"Chain":       Chain(root, members),
		"Flat":        Flat(root, members),
		"KAry":        KAry(root, members, 3),
		"Optimal":     base,
		"FromParents": FromParents(root, base.Parents()),
		"Incremental": Incremental(base, 8, append(ids(2, 64), members[2:]...), 2),
	} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// A wire relation that is not a sound tree still decodes, and the decoded
// tree fails validation — the check InstallGroupEpoch relies on.
func TestFromParentsBadRelationsFailValidation(t *testing.T) {
	for name, parents := range map[string]map[fabric.NodeID]fabric.NodeID{
		"child below its non-root parent": {2: 0, 1: 2},
		"child equal to its parent":       {2: 0, 3: 3},
		"cycle off the root":              {1: 0, 2: 3, 3: 2},
		"parent that is not a member":     {5: 0, 7: 5, 9: 99},
	} {
		if err := FromParents(0, parents).Validate(); err == nil {
			t.Errorf("%s: passed validation", name)
		}
	}
}

// The walk runs once per tree: later calls allocate nothing and repeat the
// first verdict, for sound and unsound trees alike, and a tree shared by
// several goroutines (shards installing one group) is safe to validate
// from all of them.
func TestValidateRunsOnce(t *testing.T) {
	good := Binomial(0, seq(512))
	bad := FromParents(0, map[fabric.NodeID]fabric.NodeID{2: 0, 1: 2})
	done := make(chan error)
	for i := 0; i < 4; i++ {
		go func() { done <- good.Validate() }()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	first := bad.Validate()
	if first == nil {
		t.Fatal("unsound tree passed validation")
	}
	for _, tr := range []*Tree{good, bad} {
		tr := tr
		if n := testing.AllocsPerRun(100, func() { _ = tr.Validate() }); n != 0 {
			t.Errorf("a repeated Validate allocates %v objects, want 0", n)
		}
	}
	if again := bad.Validate(); again != first {
		t.Errorf("verdict changed between calls: %v, then %v", first, again)
	}
}
