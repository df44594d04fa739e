package member

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Delivery is one multicast payload arriving at one node's host.
type Delivery struct {
	Idx uint32
	At  sim.Time
}

// EpochRecord is the ground truth for one committed epoch: exactly which
// nodes were members while it was current.
type EpochRecord struct {
	Epoch   uint32
	Members []fabric.NodeID // ascending, root included
	// Node/Join describe the transition that created the epoch (Node is
	// -1 for the initial epoch 0, the root for the finalize transition).
	Node fabric.NodeID
	Join bool
	At   sim.Time
	// RebuildNs is request-accepted to commit-complete; DisruptNs is the
	// root pump's freeze-to-thaw stall (the traffic disruption gap).
	RebuildNs, DisruptNs int64
}

// Result is everything a membership run observed.
type Result struct {
	Nodes int
	Root  fabric.NodeID
	// Epochs holds one record per committed epoch, in commit order,
	// starting with the initial epoch 0.
	Epochs []EpochRecord
	// SendEpoch[i] is the epoch the firmware staged payload i in;
	// SendStamped[i] records whether the stamp callback fired at all (a
	// run that ends early leaves payloads unstamped). The flag is separate
	// from the value because every uint32 — including 0 and MaxUint32 —
	// is a legitimate epoch once the counter wraps; a sentinel value would
	// alias a real epoch. SendSize[i] is payload i's on-wire length after
	// clamping.
	SendEpoch     []uint32
	SendStamped   []bool
	SendSize      []int
	SentinelEpoch uint32
	// SentinelStamped records whether the sentinel's stamp callback fired.
	SentinelStamped bool
	// Deliveries[n] is node n's delivery sequence in arrival order,
	// sentinel included.
	Deliveries [][]Delivery
	// Violations collects protocol errors observed during the run
	// (corrupt payloads, stray control traffic). Verify appends to and
	// returns this list.
	Violations  []string
	Rejected    int
	Transitions int
	// Finish is when the sender saw every completion; zero if the run
	// hit the deadline first.
	Finish sim.Time

	// failMu guards Violations during the run: on a sharded cluster the
	// per-node receive loops report from different engines concurrently.
	failMu sync.Mutex
}

func (r *Result) fail(format string, args ...any) {
	r.failMu.Lock()
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	r.failMu.Unlock()
}

// Verify checks the membership invariant — every payload multicast in
// epoch E was delivered exactly once, in order, to exactly E's members —
// and returns all violations (nil means the run was correct).
func (r *Result) Verify() []string {
	errs := append([]string(nil), r.Violations...)
	if r.Finish == 0 {
		errs = append(errs, "run did not complete before the deadline")
		return errs
	}
	memberAt := make(map[uint32]map[fabric.NodeID]bool, len(r.Epochs))
	for _, e := range r.Epochs {
		set := make(map[fabric.NodeID]bool, len(e.Members))
		for _, n := range e.Members {
			set[n] = true
		}
		memberAt[e.Epoch] = set
	}
	for i, ep := range r.SendEpoch {
		if !r.SendStamped[i] {
			errs = append(errs, fmt.Sprintf("payload %d was never staged", i))
		} else if memberAt[ep] == nil {
			errs = append(errs, fmt.Sprintf("payload %d staged in unrecorded epoch %d", i, ep))
		}
	}
	if !r.SentinelStamped {
		errs = append(errs, "sentinel was never staged")
	} else if set := memberAt[r.SentinelEpoch]; set == nil || len(set) != r.Nodes {
		errs = append(errs, fmt.Sprintf("sentinel staged in epoch %d without full membership", r.SentinelEpoch))
	}
	if len(errs) > 0 {
		return errs
	}

	for n := 0; n < r.Nodes; n++ {
		id := fabric.NodeID(n)
		if id == r.Root {
			continue
		}
		var want []uint32
		for i, ep := range r.SendEpoch {
			if memberAt[ep][id] {
				want = append(want, uint32(i))
			}
		}
		if memberAt[r.SentinelEpoch][id] {
			want = append(want, sentinelIdx)
		}
		got := r.Deliveries[id]
		if len(got) != len(want) {
			errs = append(errs, fmt.Sprintf("node %d: delivered %d payloads, membership says %d",
				n, len(got), len(want)))
			continue
		}
		for i := range want {
			if got[i].Idx != want[i] {
				errs = append(errs, fmt.Sprintf("node %d: delivery %d is payload %d, want %d (order or membership violation)",
					n, i, got[i].Idx, want[i]))
				break
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

// DeliveredPayloads counts all non-sentinel deliveries across the
// cluster — the denominator for disruption statistics.
func (r *Result) DeliveredPayloads() int {
	total := 0
	for _, ds := range r.Deliveries {
		for _, d := range ds {
			if d.Idx != sentinelIdx {
				total++
			}
		}
	}
	return total
}

// String summarizes the run for logs. The epoch count is the number of
// committed EpochRecords (commit order), not max-epoch+1 — the latter is
// meaningless once the counter wraps or starts above 0.
func (r *Result) String() string {
	sizes := make([]int, 0, len(r.Epochs))
	for _, e := range r.Epochs {
		sizes = append(sizes, len(e.Members))
	}
	sort.Ints(sizes)
	return fmt.Sprintf("member: %d transitions over %d epochs, group size %d..%d, %d payloads delivered, %d rejected, finish %v",
		r.Transitions, len(r.Epochs), sizes[0], sizes[len(sizes)-1], r.DeliveredPayloads(), r.Rejected, r.Finish)
}
