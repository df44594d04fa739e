package member

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Config parameterizes a membership run.
type Config struct {
	// Group is the dynamic group's ID (default 7).
	Group gm.GroupID
	// DataPort carries multicast payloads; CtrlPort carries the
	// membership protocol. Defaults 1 and 2.
	DataPort, CtrlPort gm.PortID
	// Fanout bounds the rebuilt tree's out-degree (default 2).
	Fanout int
	// Deadline bounds the simulated run (default 500ms).
	Deadline sim.Time
	// FirstEpoch is the epoch the initial view is installed as (default
	// 0). Epochs live in uint32 serial-number space and the coordinator
	// skips 0 when wrapping (it is reserved for static groups), so a test
	// can start near MaxUint32 and drive the counter through wraparound.
	FirstEpoch uint32
}

func (c Config) withDefaults() Config {
	if c.Group == 0 {
		c.Group = 7
	}
	if c.DataPort == 0 {
		c.DataPort = 1
	}
	if c.CtrlPort == 0 {
		c.CtrlPort = 2
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.Deadline <= 0 {
		c.Deadline = 500 * sim.Millisecond
	}
	return c
}

// sentinelIdx marks the end-of-run multicast, sent after the group has
// been finalized to full membership so every node's receiver can exit.
const sentinelIdx = ^uint32(0)

// SentinelSize is the sentinel's payload length — campaigns that audit
// packet accounting need it to price the final multicast.
const SentinelSize = 16

// System wires a cluster, a churn plan, and the membership protocol
// together for one run.
type System struct {
	c    *cluster.Cluster
	cfg  Config
	plan workload.ChurnPlan
	root fabric.NodeID

	data []*gm.Port
	ctrl []*gm.Port

	co  *coord
	res *Result

	// installsLeft counts pending epoch-0 installs; the callbacks fire on
	// different shards' engines concurrently, hence the atomic. Read only
	// after a run barrier.
	installsLeft atomic.Int64
	finalized    bool
	// finalWait is only ever touched from root-node processes (the
	// coordinator wakes it, the sender waits on it), on the root's shard.
	finalWait sim.Waiter

	mTransitions *metrics.Counter
	mJoins       *metrics.Counter
	mLeaves      *metrics.Counter
	mRejected    *metrics.Counter
	mRebuildNs   *metrics.Histogram
	mDisruptNs   *metrics.Histogram
}

// Run executes a churn plan on the cluster: it installs the initial
// epoch-0 group, spawns the per-node membership agents, the coordinator
// (on the root), the per-node receivers, the join/leave request
// processes, and the root sender, then runs the engine to the deadline.
// The returned Result holds the per-epoch membership ground truth and
// every delivery; call Verify to check the membership invariant.
func Run(c *cluster.Cluster, cfg Config, plan workload.ChurnPlan) *Result {
	cfg = cfg.withDefaults()
	return RunOn(c, cfg, plan, c.OpenPorts(cfg.DataPort), c.OpenPorts(cfg.CtrlPort))
}

// RunOn is Run against ports the caller already opened (one data and one
// control port per node) — the chaos campaigns use it so they can audit
// port-level resources after the run.
func RunOn(c *cluster.Cluster, cfg Config, plan workload.ChurnPlan, data, ctrl []*gm.Port) *Result {
	cfg = cfg.withDefaults()
	if plan.Root != 0 {
		panic(fmt.Sprintf("member: plan root %d unsupported (coordinator lives on node 0)", plan.Root))
	}
	if len(plan.Initial) == 0 || len(plan.Sends) == 0 {
		panic("member: plan has no initial members or no sends")
	}
	n := len(c.Nodes)
	root := fabric.NodeID(plan.Root)
	s := &System{
		c:    c,
		cfg:  cfg,
		plan: plan,
		root: root,
		data: data,
		ctrl: ctrl,
	}
	reg := metrics.Ensure(c.Cfg.Metrics)
	s.mTransitions = reg.Counter("member", int(s.root), "transitions")
	s.mJoins = reg.Counter("member", int(s.root), "joins")
	s.mLeaves = reg.Counter("member", int(s.root), "leaves")
	s.mRejected = reg.Counter("member", int(s.root), "rejected_requests")
	s.mRebuildNs = reg.Histogram("member", int(s.root), "rebuild_ns")
	s.mDisruptNs = reg.Histogram("member", int(s.root), "disruption_ns")

	initial := make([]fabric.NodeID, 0, len(plan.Initial)+1)
	initial = append(initial, s.root)
	for _, m := range plan.Initial {
		initial = append(initial, fabric.NodeID(m))
	}
	tr := tree.Incremental(nil, s.root, initial, cfg.Fanout)

	s.res = &Result{
		Nodes:       n,
		Root:        s.root,
		SendEpoch:   make([]uint32, len(plan.Sends)),
		SendStamped: make([]bool, len(plan.Sends)),
		SendSize:    make([]int, len(plan.Sends)),
		Deliveries:  make([][]Delivery, n),
	}
	s.res.Epochs = append(s.res.Epochs, EpochRecord{
		Epoch:   cfg.FirstEpoch,
		Members: append([]fabric.NodeID(nil), initial...),
		Node:    -1,
	})

	s.co = newCoord(s, initial, tr)
	s.co.epoch = cfg.FirstEpoch

	// Phase 1: install the initial epoch-0 view on the root and every
	// initial member, then run to quiescence so every entry is live before
	// any process starts. The quiescent barrier is also what makes reading
	// installsLeft safe on a sharded cluster: the install callbacks fire on
	// the members' engines, and only the barrier orders those writes before
	// this goroutine's read.
	for _, m := range initial {
		m := m
		s.installsLeft.Add(1)
		c.WithNode(m, func() {
			c.Nodes[m].Ext.InstallGroupEpoch(cfg.Group, tr, cfg.DataPort, cfg.DataPort, cfg.FirstEpoch, func() {
				s.installsLeft.Add(-1)
			})
		})
	}
	// The barrier must NOT drain the whole event heap (c.Run()): a fault
	// injector may already have armed absolute-time events — a NIC pause
	// deep in the run, say — and firing them here would advance the clock
	// past every fault window before a single membership process exists,
	// silently turning timed faults into no-ops. Bounded windows fire only
	// what installation itself schedules; the same RunUntil sequence runs
	// on serial and sharded clusters, so engine equivalence holds.
	installBudget := c.Now() + sim.Millisecond
	for s.installsLeft.Load() != 0 && c.Now() < installBudget {
		c.RunUntil(c.Now() + sim.Microsecond)
	}
	if left := s.installsLeft.Load(); left != 0 {
		panic(fmt.Sprintf("member: %d epoch-0 installs still pending after quiescence", left))
	}

	// Phase 2: spawn every process on its own node's engine and run to the
	// deadline.
	for id := 0; id < n; id++ {
		id := fabric.NodeID(id)
		c.SpawnOn(id, fmt.Sprintf("member-agent-%d", id), func(p *sim.Proc) {
			s.agentLoop(p, id)
		})
	}
	for id := 1; id < n; id++ {
		id := fabric.NodeID(id)
		c.SpawnOn(id, fmt.Sprintf("member-recv-%d", id), func(p *sim.Proc) {
			s.recvLoop(p, id)
		})
	}
	for i, ev := range plan.Events {
		i, ev := i, ev
		c.SpawnOn(fabric.NodeID(ev.Node), fmt.Sprintf("member-req-%d", i), func(p *sim.Proc) {
			s.requestProc(p, ev)
		})
	}
	c.SpawnOn(s.root, "member-send", func(p *sim.Proc) { s.senderLoop(p) })

	c.RunUntil(c.Now() + cfg.Deadline)
	return s.res
}

// ctrlBufCap is the receive-buffer capacity for control messages; the
// largest carries the full membership plus the full parent table.
func (s *System) ctrlBufCap() int { return 28 + 12*len(s.c.Nodes) }

// maxPayload is the receive-token capacity for data messages.
func (s *System) maxPayload() int {
	max := SentinelSize
	for _, m := range s.plan.Sends {
		if sz := clampSize(m.Size); sz > max {
			max = sz
		}
	}
	return max
}

// clampSize bumps payloads to the 8-byte floor needed for the index
// header plus at least one pattern byte.
func clampSize(sz int) int {
	if sz < 8 {
		return 8
	}
	return sz
}

// mkPayload builds the deterministic payload for message idx: a 4-byte
// little-endian index followed by an index-keyed byte pattern.
func mkPayload(idx uint32, size int) []byte {
	size = clampSize(size)
	b := make([]byte, size)
	binary.LittleEndian.PutUint32(b, idx)
	for i := 4; i < size; i++ {
		b[i] = byte(int(idx)*131 + i*29 + 7)
	}
	return b
}

// sendCtrl delivers a control message from node 'from' to node 'to'.
// Self-delivery (the coordinator messaging the root's own agent, or vice
// versa) cannot use gm.Send — self-sends panic — so it rides
// Port.PostGroupEvent through the same receive loop.
func (s *System) sendCtrl(p *sim.Proc, from, to fabric.NodeID, m ctrlMsg) {
	data := m.encode()
	if from == to {
		s.ctrl[from].PostGroupEvent(&gm.RecvEvent{
			Src: from, SrcPort: s.cfg.CtrlPort, Group: s.cfg.Group, Data: data,
		})
		return
	}
	s.ctrl[from].Send(p, to, s.cfg.CtrlPort, data)
}

// await runs a firmware operation that completes via callback and blocks
// the calling proc until it fires.
func (s *System) await(p *sim.Proc, post func(done func())) {
	ok := false
	var w sim.Waiter
	post(func() {
		ok = true
		w.WakeAll()
	})
	for !ok {
		w.Wait(p)
	}
}

// requestProc sends one join/leave request from its node at its
// scheduled time.
func (s *System) requestProc(p *sim.Proc, ev workload.ChurnEvent) {
	if ev.At > p.Now() {
		p.Sleep(ev.At - p.Now())
	}
	kind := ctrlLeave
	if ev.Join {
		kind = ctrlJoin
	}
	node := fabric.NodeID(ev.Node)
	s.sendCtrl(p, node, s.root, ctrlMsg{kind: kind, node: node})
}

// senderLoop multicasts the plan's payloads from the root, recording the
// epoch each message was actually staged in (the firmware stamps it at
// the message boundary — authoritative for the membership invariant).
// After the last payload it asks the coordinator to finalize membership
// to the full cluster, multicasts the sentinel every receiver exits on,
// waits for all completions, and requests shutdown.
func (s *System) senderLoop(p *sim.Proc) {
	ext := s.c.Nodes[s.root].Ext
	port := s.data[s.root]
	for i, m := range s.plan.Sends {
		if m.At > p.Now() {
			p.Sleep(m.At - p.Now())
		}
		idx := uint32(i)
		buf := mkPayload(idx, m.Size)
		s.res.SendSize[i] = len(buf)
		ext.McastEpoch(p, port, s.cfg.Group, buf, func(epoch uint32) {
			s.res.SendEpoch[idx] = epoch
			s.res.SendStamped[idx] = true
		})
	}
	s.sendCtrl(p, s.root, s.root, ctrlMsg{kind: ctrlFinalize})
	for !s.finalized {
		s.finalWait.Wait(p)
	}
	ext.McastEpoch(p, port, s.cfg.Group, mkPayload(sentinelIdx, SentinelSize), func(epoch uint32) {
		s.res.SentinelEpoch = epoch
		s.res.SentinelStamped = true
	})
	for i := 0; i < len(s.plan.Sends)+1; i++ {
		port.WaitSendDone(p)
	}
	s.res.Finish = p.Now()
	s.sendCtrl(p, s.root, s.root, ctrlMsg{kind: ctrlShutdownReq})
}

// recvLoop consumes multicast deliveries at one non-root node, recording
// order and checking payload integrity. It exits on the sentinel, which
// reaches every node because the group is finalized to full membership
// before the sentinel is sent.
func (s *System) recvLoop(p *sim.Proc, id fabric.NodeID) {
	port := s.data[id]
	port.ProvideN(len(s.plan.Sends)+1, s.maxPayload())
	for {
		ev := port.Recv(p)
		if len(ev.Data) < 8 {
			s.res.fail("node %d: runt delivery of %d bytes", id, len(ev.Data))
			continue
		}
		idx := binary.LittleEndian.Uint32(ev.Data)
		for i := 4; i < len(ev.Data); i++ {
			if ev.Data[i] != byte(int(idx)*131+i*29+7) {
				s.res.fail("node %d: payload %d corrupt at byte %d", id, idx, i)
				break
			}
		}
		s.res.Deliveries[id] = append(s.res.Deliveries[id], Delivery{Idx: idx, At: p.Now()})
		if idx == sentinelIdx {
			return
		}
	}
}
