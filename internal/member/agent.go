package member

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tree"
)

// agent is the per-node membership handler: it stages, drains, and
// commits epoch views against the local NIC on the coordinator's orders.
type agent struct {
	s *System
	n fabric.NodeID
	// staged/stagedEpoch track the view this node staged in the in-flight
	// transition. The explicit flag (rather than a 0-means-none sentinel)
	// keeps the check correct for every epoch value in the wrapping
	// uint32 epoch space.
	staged      bool
	stagedEpoch uint32
}

// agentLoop is every node's control-port service loop. The root's loop
// additionally runs the coordinator: request and phase-reply kinds are
// routed to it, while prepare/quiesce/commit addressed to the root itself
// arrive as self-posted events and take the same agent path as on any
// other node.
func (s *System) agentLoop(p *sim.Proc, n fabric.NodeID) {
	a := &agent{s: s, n: n}
	port := s.ctrl[n]
	port.ProvideN(4, s.ctrlBufCap())
	// The initial epoch-0 installs finished before any agent spawned (RunOn
	// runs the cluster to quiescence between installing and spawning), so a
	// prepare can never overtake an install of the same group.
	for {
		ev := port.Recv(p)
		m, err := decodeCtrl(ev.Data) // copies what it keeps
		port.Provide(s.ctrlBufCap())
		if err != nil {
			s.res.fail("node %d: %v", n, err)
			continue
		}
		switch m.kind {
		case ctrlPrepare:
			a.onPrepare(p, m)
		case ctrlQuiesce:
			a.onQuiesce(p, m)
		case ctrlCommit:
			a.onCommit(p, m)
		case ctrlShutdown:
			return
		default:
			if n != s.root {
				s.res.fail("node %d: unexpected control kind %d", n, m.kind)
				continue
			}
			s.co.handle(p, m)
			if s.co.done {
				return
			}
		}
	}
}

// onPrepare stages the new epoch's view. A node in the new membership
// stages the rebuilt tree (an update if it is already a member, a fresh
// non-live install if it is joining); a node absent from the new
// membership stages its own departure (nil tree). Either way the local
// group entry freezes at a message boundary until commit.
func (a *agent) onPrepare(p *sim.Proc, m ctrlMsg) {
	s := a.s
	var tr *tree.Tree
	for _, mem := range m.members {
		if mem == a.n {
			tr = tree.FromParents(m.root, m.parents)
			break
		}
	}
	s.await(p, func(done func()) {
		s.c.Nodes[a.n].Ext.PrepareGroupEpoch(s.cfg.Group, tr, s.cfg.DataPort, s.cfg.DataPort, m.epoch, done)
	})
	a.staged, a.stagedEpoch = true, m.epoch
	if a.n == s.root {
		s.co.freezeAt = p.Now()
	}
	s.sendCtrl(p, a.n, s.root, ctrlMsg{kind: ctrlPrepared, node: a.n, epoch: m.epoch})
}

// onQuiesce drains the old epoch's in-flight traffic at this node and
// reports. The coordinator only asks once this node's parent in the OLD
// tree has drained, so "drained" here is stable: nothing upstream can
// re-arm this node's send records afterwards.
func (a *agent) onQuiesce(p *sim.Proc, m ctrlMsg) {
	s := a.s
	s.await(p, func(done func()) {
		s.c.Nodes[a.n].Ext.QuiesceGroup(s.cfg.Group, done)
	})
	s.sendCtrl(p, a.n, s.root, ctrlMsg{kind: ctrlDrained, node: a.n, epoch: m.epoch})
}

// onCommit activates the staged view (or completes this node's
// departure) and reports. The root's commit is what un-freezes the send
// pump into the new epoch.
func (a *agent) onCommit(p *sim.Proc, m ctrlMsg) {
	s := a.s
	if a.staged && a.stagedEpoch == m.epoch {
		s.await(p, func(done func()) {
			s.c.Nodes[a.n].Ext.CommitGroupEpoch(s.cfg.Group, m.epoch, done)
		})
		a.staged = false
	}
	if a.n == s.root {
		s.co.thawAt = p.Now()
	}
	s.sendCtrl(p, a.n, s.root, ctrlMsg{kind: ctrlCommitted, node: a.n, epoch: m.epoch})
}
