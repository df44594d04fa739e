package workload

import (
	"fmt"

	"repro/internal/sim"
)

// GroupDst marks a Message as a multicast to the current group membership
// rather than a point-to-point transfer.
const GroupDst = -1

// ChurnSpec configures a churn workload: multicast traffic from a fixed
// root interleaved with a deterministic join/leave schedule.
type ChurnSpec struct {
	Nodes int
	// Transitions is the number of join/leave events to schedule.
	Transitions int
	// Msgs multicasts of ~MeanSize bytes are posted by the root.
	Msgs     int
	MeanSize int
	Sizes    SizeDist
	// MeanGap spaces the multicasts; MeanChurnGap spaces the membership
	// events. Both draw uniformly from [0, 2*mean).
	MeanGap      sim.Time
	MeanChurnGap sim.Time
	// InitialMembers is the number of non-root members at start
	// (default: half the non-root nodes, at least one).
	InitialMembers int
}

// ChurnEvent is one membership transition request: node asks to join
// (Join true) or leave the group at time At.
type ChurnEvent struct {
	Node int
	Join bool
	At   sim.Time
}

// ChurnPlan is a generated churn workload: the initial membership, the
// transition schedule, and the multicast sends (Src is always the root,
// Dst always GroupDst). The plan is a pure function of (spec, rng seed).
type ChurnPlan struct {
	Root    int
	Initial []int // initial non-root members, ascending
	Events  []ChurnEvent
	Sends   []Message
}

// GenerateChurn produces a churn plan deterministically from the RNG. The
// root (node 0) never leaves, and the schedule never empties the group of
// non-root members — a multicast must always have someone to deliver to
// while traffic is pending. Events reference nodes 1..Nodes-1; a drawn
// leave that would empty the group becomes a join of a non-member, and
// vice versa when everyone is already a member.
func GenerateChurn(spec ChurnSpec, rng *sim.RNG) (ChurnPlan, error) {
	if spec.Nodes < 3 {
		return ChurnPlan{}, fmt.Errorf("workload: churn needs at least 3 nodes, have %d", spec.Nodes)
	}
	if spec.Transitions < 0 {
		return ChurnPlan{}, fmt.Errorf("workload: negative transition count %d", spec.Transitions)
	}
	if spec.Msgs <= 0 {
		return ChurnPlan{}, fmt.Errorf("workload: nonpositive message count %d", spec.Msgs)
	}
	if spec.MeanSize <= 0 {
		spec.MeanSize = 1024
	}
	if spec.Sizes == "" {
		spec.Sizes = Fixed
	}
	if spec.MeanGap <= 0 {
		spec.MeanGap = 20 * sim.Microsecond
	}
	if spec.MeanChurnGap <= 0 {
		spec.MeanChurnGap = 100 * sim.Microsecond
	}
	initial := spec.InitialMembers
	if initial <= 0 {
		initial = (spec.Nodes - 1) / 2
	}
	if initial < 1 {
		initial = 1
	}
	if initial > spec.Nodes-1 {
		initial = spec.Nodes - 1
	}

	plan := ChurnPlan{Root: 0}
	in := make(map[int]bool, spec.Nodes)
	// Initial membership: a deterministic random subset of the non-root
	// nodes, ascending for a canonical representation.
	for _, i := range rng.Perm(spec.Nodes - 1)[:initial] {
		in[i+1] = true
	}
	for n := 1; n < spec.Nodes; n++ {
		if in[n] {
			plan.Initial = append(plan.Initial, n)
		}
	}

	members := initial
	var clock sim.Time
	for i := 0; i < spec.Transitions; i++ {
		clock += rng.Duration(2 * spec.MeanChurnGap)
		n := 1 + rng.Intn(spec.Nodes-1)
		join := !in[n]
		if !join && members == 1 {
			// Leaving would empty the group while traffic may be pending:
			// convert to a join of the lowest-ID non-member.
			for m := 1; m < spec.Nodes; m++ {
				if !in[m] {
					n, join = m, true
					break
				}
			}
		}
		in[n] = !in[n]
		if join {
			members++
		} else {
			members--
		}
		plan.Events = append(plan.Events, ChurnEvent{Node: n, Join: join, At: clock})
	}

	var sendClock sim.Time
	for i := 0; i < spec.Msgs; i++ {
		var size int
		switch spec.Sizes {
		case Fixed:
			size = spec.MeanSize
		case Bimodal:
			if rng.Float64() < 0.9 {
				size = maxInt(1, spec.MeanSize/4)
			} else {
				size = spec.MeanSize * 16
			}
		case UniformSize:
			size = 1 + rng.Intn(2*spec.MeanSize)
		default:
			return ChurnPlan{}, fmt.Errorf("workload: unknown size distribution %q", spec.Sizes)
		}
		sendClock += rng.Duration(2 * spec.MeanGap)
		plan.Sends = append(plan.Sends, Message{Src: plan.Root, Dst: GroupDst, Size: size, At: sendClock})
	}
	return plan, nil
}
