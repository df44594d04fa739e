package chaos

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/member"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ctrlPort carries the membership protocol; payloads ride dataPort.
const ctrlPort gm.PortID = 2

// MemberLibrary returns the membership scenario set, in fixed order.
func MemberLibrary() []Scenario {
	return []Scenario{
		{
			Name: "churn-clean",
			Desc: "fault-free churn: the two-phase epoch roll alone must not disturb delivery",
		},
		{
			Name: "churn-under-loss",
			Desc: "Gilbert–Elliott bursty loss on all links while the group churns",
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name:     "churn-under-loss-nacks",
			Desc:     "same bursty channel with nack fast recovery and adaptive RTO",
			Nacks:    true,
			Adaptive: true,
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name: "churn-coordinator-outage",
			Desc: "the coordinator's NIC goes deaf for 700µs mid-churn; requests and phase replies must survive on GM's reliable unicast",
			Inject: func(f *Fault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, 300*sim.Microsecond, sim.Millisecond)
			},
		},
		{
			Name: "churn-dup-storm",
			Desc: "every 3rd packet duplicated all run; stale and duplicate epoch traffic must be rejected, never delivered",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
	}
}

// Churn is the dynamic-membership workload: Msgs multicasts of mean Size
// bytes stream from the root while Transitions join/leave requests roll
// the group, rebuilt Fanout-ary, through epochs. Its invariant is the
// membership one — every payload multicast in epoch E is delivered exactly
// once, in order, to exactly E's members — checked on the recorded
// deliveries, which also price the packet census.
type Churn struct {
	Msgs        int
	Size        int
	Transitions int
	Fanout      int
}

func (w Churn) withDefaults() Churn {
	if w.Msgs <= 0 {
		w.Msgs = 16
	}
	if w.Size <= 0 {
		w.Size = 4096
	}
	if w.Transitions <= 0 {
		w.Transitions = 10
	}
	if w.Fanout <= 0 {
		w.Fanout = 2
	}
	return w
}

// MinNodes: a coordinator, and two nodes so that one can leave.
func (Churn) MinNodes() int { return 3 }

// Deadline: churn runs outlast static ones (every transition is a
// cluster-wide barrier), so the default is a full simulated second.
func (Churn) Deadline() sim.Time { return sim.Second }

func (w Churn) Params() []Stat {
	return []Stat{{"churn", uint64(w.withDefaults().Transitions)}}
}

func (w Churn) Plan(cfg Config) (Job, error) { return w.NewJob(cfg) }

// NewJob generates the run's churn plan. It derives from the seed alone,
// so baseline and faulted runs churn identically and differ only in what
// the fabric does to them. The job is returned as its own type so that a
// caller — the schedule explorer — can move the plan's events first.
func (w Churn) NewJob(cfg Config) (*ChurnJob, error) {
	w = w.withDefaults()
	plan, err := workload.GenerateChurn(workload.ChurnSpec{
		Nodes:        cfg.Nodes,
		Transitions:  w.Transitions,
		Msgs:         w.Msgs,
		MeanSize:     w.Size,
		MeanGap:      15 * sim.Microsecond,
		MeanChurnGap: 60 * sim.Microsecond,
	}, sim.NewRNG(ScenarioSeed(cfg.Seed, "member-plan")))
	if err != nil {
		return nil, err
	}
	return &ChurnJob{Plan: plan, fanout: w.Fanout}, nil
}

// ChurnJob is one run of the Churn workload.
type ChurnJob struct {
	Plan workload.ChurnPlan

	fanout     int
	data, ctrl []*gm.Port
	res        *member.Result
}

// Prepare installs the faults first and opens the ports after: the group
// itself is installed by member.RunOn, inside Drive.
func (j *ChurnJob) Prepare(env *Env) ([]*gm.Port, error) {
	env.Inject(fabric.NodeID(j.Plan.Root), nil)
	j.data = env.Cluster.OpenPorts(dataPort)
	j.ctrl = env.Cluster.OpenPorts(ctrlPort)
	return j.data, nil
}

func (j *ChurnJob) Drive(env *Env) (sim.Time, []string) {
	j.res = member.RunOn(env.Cluster, member.Config{
		DataPort: dataPort,
		CtrlPort: ctrlPort,
		Fanout:   j.fanout,
		Deadline: env.Cfg.Deadline,
	}, j.Plan, j.data, j.ctrl)
	return j.res.Finish, j.res.Verify()
}

// Check audits the second port set — the control ports, which the runner
// knows nothing of — and takes the packet census from the deliveries the
// membership ground truth prescribes: acked-as-dropped rejections must not
// leak into the accepted count.
func (j *ChurnJob) Check(env *Env, d metrics.Snapshot) ([]string, []Stat) {
	gmc := &env.Cluster.Cfg.GM
	var v []string
	for i, p := range j.ctrl {
		if got, want := p.FreeSendTokens(), gmc.SendTokens; got != want {
			v = append(v, fmt.Sprintf(
				"node %d: %d/%d control send tokens not returned", i, want-got, want))
		}
		if r := p.PendingRecvs(); r != 0 {
			v = append(v, fmt.Sprintf(
				"node %d: %d control deliveries never consumed", i, r))
		}
	}
	// An incomplete run's census is meaningless.
	if j.res.Finish != 0 {
		var want uint64
		for _, ds := range j.res.Deliveries {
			for _, del := range ds {
				size := member.SentinelSize
				if int(del.Idx) < len(j.res.SendSize) {
					size = j.res.SendSize[del.Idx]
				}
				want += uint64(gmc.Packets(size))
			}
		}
		v = append(v, checkCensus(d, want)...)
	}
	// Committed epochs (the initial view and the finalize transition
	// included), rejected requests, and what the epoch filters turned away.
	return v, []Stat{
		{"epochs", uint64(len(j.res.Epochs))},
		{"rejected", uint64(j.res.Rejected)},
		{"stale", d.CounterSum("core", "stale_epoch_drops")},
		{"future", d.CounterSum("core", "future_epoch_drops")},
		{"ackdrop", d.CounterSum("core", "acked_as_dropped")},
	}
}
