package member

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func churnPlan(t *testing.T, spec workload.ChurnSpec, seed int64) workload.ChurnPlan {
	t.Helper()
	plan, err := workload.GenerateChurn(spec, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runPlan(t *testing.T, nodes int, plan workload.ChurnPlan) *Result {
	t.Helper()
	c := cluster.New(nodes)
	res := Run(c, Config{}, plan)
	if errs := res.Verify(); errs != nil {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("membership invariant violated: %s", res)
	}
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("%d procs still alive after shutdown", live)
	}
	for _, n := range c.Nodes {
		if out := n.Ext.OutstandingRecords(); out != 0 {
			t.Fatalf("node %d leaked %d send records", n.ID, out)
		}
		if timers := n.Ext.PendingGroupTimers(); timers != 0 {
			t.Fatalf("node %d leaked %d group timers", n.ID, timers)
		}
	}
	return res
}

// A transition-free plan exercises install, traffic, finalize, sentinel,
// and shutdown without any epoch roll beyond the finalize itself.
func TestRunStaticGroup(t *testing.T) {
	plan := churnPlan(t, workload.ChurnSpec{Nodes: 6, Transitions: 0, Msgs: 8, MeanSize: 2048}, 3)
	res := runPlan(t, 6, plan)
	for i, ep := range res.SendEpoch {
		if ep != 0 {
			t.Fatalf("payload %d staged in epoch %d, want 0 (no churn before finalize)", i, ep)
		}
	}
	if res.Transitions != 1 {
		t.Fatalf("%d transitions recorded, want only the finalize", res.Transitions)
	}
}

// The core tentpole test: joins and leaves under live traffic, every
// payload delivered exactly once, in order, to exactly its epoch's
// membership.
func TestRunChurnUnderTraffic(t *testing.T) {
	plan := churnPlan(t, workload.ChurnSpec{
		Nodes: 8, Transitions: 10, Msgs: 24, MeanSize: 4096,
		MeanGap: 15 * sim.Microsecond, MeanChurnGap: 60 * sim.Microsecond,
	}, 11)
	res := runPlan(t, 8, plan)
	if res.Transitions < 10 {
		t.Fatalf("only %d transitions committed, want >= 10", res.Transitions)
	}
	// The schedule must actually have rolled epochs while traffic flowed.
	rolled := false
	for _, ep := range res.SendEpoch {
		if ep != 0 {
			rolled = true
		}
	}
	if !rolled {
		t.Fatal("every payload stayed in epoch 0 — churn never interleaved with traffic")
	}
	for _, e := range res.Epochs[1:] {
		if e.RebuildNs <= 0 || e.DisruptNs < 0 {
			t.Fatalf("epoch %d: implausible rebuild %dns / disruption %dns", e.Epoch, e.RebuildNs, e.DisruptNs)
		}
	}
}

// Membership runs must be a pure function of the plan: identical results
// on a fresh cluster, field for field.
func TestRunDeterminism(t *testing.T) {
	spec := workload.ChurnSpec{
		Nodes: 7, Transitions: 8, Msgs: 16, MeanSize: 1024,
		MeanGap: 10 * sim.Microsecond, MeanChurnGap: 50 * sim.Microsecond,
	}
	a := runPlan(t, 7, churnPlan(t, spec, 21))
	b := runPlan(t, 7, churnPlan(t, spec, 21))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same plan diverged:\n%s\n%s", a, b)
	}
}

// checkMembersUnique asserts every committed epoch's membership is
// strictly ascending with no duplicate entries — the shape a coordinator
// that mutated pending-transition state on a duplicate request would
// break first.
func checkMembersUnique(t *testing.T, res *Result) {
	t.Helper()
	for _, e := range res.Epochs {
		for i := 1; i < len(e.Members); i++ {
			if e.Members[i] <= e.Members[i-1] {
				t.Fatalf("epoch %d membership not strictly ascending: %v", e.Epoch, e.Members)
			}
		}
	}
}

// Regression (raced requests): a duplicate join from a node that is
// already a member — including an exactly-simultaneous raced copy — is
// rejected, never applied twice. The membership lists stay duplicate-free
// and the invariant holds.
func TestDuplicateJoinFromMemberRejected(t *testing.T) {
	plan := workload.ChurnPlan{
		Root:    0,
		Initial: []int{1, 2},
		Events: []workload.ChurnEvent{
			{Node: 3, Join: true, At: 20 * sim.Microsecond},
			{Node: 3, Join: true, At: 20 * sim.Microsecond}, // raced duplicate, same instant
			{Node: 3, Join: true, At: 90 * sim.Microsecond}, // late duplicate, 3 already in
		},
		Sends: []workload.Message{
			{Src: 0, Dst: workload.GroupDst, Size: 512, At: 10 * sim.Microsecond},
			{Src: 0, Dst: workload.GroupDst, Size: 512, At: 120 * sim.Microsecond},
		},
	}
	res := runPlan(t, 6, plan)
	if res.Rejected != 2 {
		t.Fatalf("rejected %d requests, want 2 (both duplicate joins)", res.Rejected)
	}
	// The accepted join plus the finalize.
	if res.Transitions != 2 {
		t.Fatalf("%d transitions committed, want 2", res.Transitions)
	}
	checkMembersUnique(t, res)
}

// Regression (raced requests): a leave from a node that was never a
// member, and a second leave from a node that already left, are both
// rejected instead of corrupting the view.
func TestLeaveFromNonMemberRejected(t *testing.T) {
	plan := workload.ChurnPlan{
		Root:    0,
		Initial: []int{1, 2, 3},
		Events: []workload.ChurnEvent{
			{Node: 2, Join: false, At: 20 * sim.Microsecond},
			{Node: 4, Join: false, At: 25 * sim.Microsecond}, // never a member
			{Node: 2, Join: false, At: 90 * sim.Microsecond}, // already left
		},
		Sends: []workload.Message{
			{Src: 0, Dst: workload.GroupDst, Size: 512, At: 10 * sim.Microsecond},
			{Src: 0, Dst: workload.GroupDst, Size: 512, At: 120 * sim.Microsecond},
		},
	}
	res := runPlan(t, 6, plan)
	if res.Rejected != 2 {
		t.Fatalf("rejected %d requests, want 2 (non-member leave + double leave)", res.Rejected)
	}
	if res.Transitions != 2 {
		t.Fatalf("%d transitions committed, want 2 (the leave + finalize)", res.Transitions)
	}
	checkMembersUnique(t, res)
	// Node 2 must actually be out: the accepted-leave epoch excludes it.
	post := res.Epochs[1]
	for _, m := range post.Members {
		if m == 2 {
			t.Fatalf("epoch %d still contains the departed node 2: %v", post.Epoch, post.Members)
		}
	}
}

// Regression (epoch wraparound): a run whose epoch counter starts near
// MaxUint32 rolls straight through the wrap — the coordinator skips the
// static-reserved epoch 0, frames stamped MaxUint32 still classify
// correctly against post-wrap views, and Verify's staging bookkeeping
// does not alias MaxUint32 with "never staged" (the old sentinel value).
func TestEpochWraparoundUnderChurn(t *testing.T) {
	const first = ^uint32(0) - 2
	plan := churnPlan(t, workload.ChurnSpec{
		Nodes: 8, Transitions: 8, Msgs: 20, MeanSize: 1024,
		MeanGap: 10 * sim.Microsecond, MeanChurnGap: 40 * sim.Microsecond,
	}, 11)
	c := cluster.New(8)
	res := Run(c, Config{FirstEpoch: first}, plan)
	if errs := res.Verify(); errs != nil {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("membership invariant violated across the epoch wrap: %s", res)
	}
	if res.Transitions < 4 {
		t.Fatalf("only %d transitions committed — the counter never wrapped", res.Transitions)
	}
	sawTop, sawPostWrap := false, false
	for _, e := range res.Epochs {
		if e.Epoch == 0 {
			t.Fatal("epoch 0 was allocated to a dynamic transition — reserved for static groups")
		}
		if e.Epoch == ^uint32(0) {
			sawTop = true
		}
		if e.Epoch >= 1 && e.Epoch <= 8 {
			sawPostWrap = true
		}
	}
	if !sawTop || !sawPostWrap {
		t.Fatalf("run did not cross the wrap (top=%v postWrap=%v): epochs %v", sawTop, sawPostWrap, res.Epochs)
	}
	// MaxUint32 is a legitimate SendEpoch value here; the stamped flags —
	// not a sentinel — must say every payload was staged.
	for i, ok := range res.SendStamped {
		if !ok {
			t.Fatalf("payload %d reported unstamped", i)
		}
	}
}

// Leaving nodes stop receiving mid-run and rejoining nodes resume — the
// delivery sets must actually differ across nodes when churn happened.
func TestChurnActuallyExcludesDepartedNodes(t *testing.T) {
	plan := churnPlan(t, workload.ChurnSpec{
		Nodes: 8, Transitions: 12, Msgs: 30, MeanSize: 1024,
		MeanGap: 10 * sim.Microsecond, MeanChurnGap: 40 * sim.Microsecond,
	}, 5)
	res := runPlan(t, 8, plan)
	partial := false
	for n := 1; n < res.Nodes; n++ {
		if got := len(res.Deliveries[n]); got < len(plan.Sends)+1 {
			partial = true
		}
	}
	if !partial {
		t.Fatal("every node received every payload — departures never took effect")
	}
}
