package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// A root that leaves its group with a multi-packet message still in flight
// neither panics nor drops the message: the departure is staged at once,
// and its commit waits for the quiesce that retires the last record.
func TestRemoveGroupBusyDefersUntilDrained(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	got := r.spawnReceivers(1, 20000)
	removed := false
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		ext := r.c.Nodes[0].Ext
		ext.Mcast(p, r.ports[0], r.gid, pattern(16384))
		ext.PrepareGroupEpoch(r.gid, nil, testPort, testPort, 1, nil)
		ext.QuiesceGroup(r.gid, func() {
			if n := ext.OutstandingRecords(); n != 0 {
				t.Errorf("departure committed with %d records outstanding", n)
			}
			ext.CommitGroupEpoch(r.gid, 1, func() { removed = true })
		})
		r.ports[0].WaitSendDone(p)
	})
	r.run(t)
	if len(*got) != 3 {
		t.Fatalf("message delivered to %d nodes, want 3", len(*got))
	}
	if !removed {
		t.Fatal("deferred removal never ran")
	}
	if r.c.Nodes[0].Ext.HasGroup(r.gid) {
		t.Fatal("group still installed after drained removal")
	}
}

// QuiesceGroup on an idle group fires immediately; on a busy one it fires
// at the exact event that retires the last record.
func TestQuiesceGroupWaitsForDrain(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	got := r.spawnReceivers(1, 20000)
	idleRan, busyRan := false, false
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		ext := r.c.Nodes[0].Ext
		ext.QuiesceGroup(r.gid, func() { idleRan = true })
		ext.QuiesceGroup(999, func() {}) // unknown groups complete immediately
		ext.Mcast(p, r.ports[0], r.gid, pattern(16384))
		ext.QuiesceGroup(r.gid, func() {
			busyRan = true
			if n := ext.OutstandingRecords(); n != 0 {
				t.Errorf("quiesce fired with %d records outstanding", n)
			}
		})
		r.ports[0].WaitSendDone(p)
		if !busyRan {
			t.Error("send completed but the quiesce callback had not fired")
		}
	})
	r.run(t)
	if !idleRan {
		t.Fatal("idle-group quiesce never fired")
	}
	if len(*got) != 3 {
		t.Fatalf("message delivered to %d nodes, want 3", len(*got))
	}
}

// rollEpoch prepares and commits the same tree at a new epoch on the
// given nodes, waiting for each firmware phase to land everywhere before
// starting the next.
func rollEpoch(p *sim.Proc, r *rig, epoch uint32, nodes ...int) {
	left := 0
	for _, n := range nodes {
		left++
		r.c.Nodes[n].Ext.PrepareGroupEpoch(r.gid, r.tr, testPort, testPort, epoch, func() { left-- })
	}
	for left > 0 {
		p.Sleep(sim.Microsecond)
	}
	for _, n := range nodes {
		left++
		r.c.Nodes[n].Ext.CommitGroupEpoch(r.gid, epoch, func() { left-- })
	}
	for left > 0 {
		p.Sleep(sim.Microsecond)
	}
}

// A full prepare/commit roll across all members: traffic flows before and
// after, the epoch advances, and the sequence space restarts cleanly.
func TestEpochRollCarriesTraffic(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	got := r.spawnReceivers(2, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		ext := r.c.Nodes[0].Ext
		ext.McastSync(p, r.ports[0], r.gid, pattern(64))
		rollEpoch(p, r, 1, 0, 1, 2, 3)
		if ep, live := ext.GroupEpoch(r.gid); ep != 1 || !live {
			t.Errorf("root group at epoch %d live=%v after commit, want 1/true", ep, live)
		}
		ext.McastSync(p, r.ports[0], r.gid, pattern(64))
	})
	r.run(t)
	for n, msgs := range *got {
		if len(msgs) != 2 {
			t.Fatalf("node %d got %d messages across the roll, want 2", n, len(msgs))
		}
	}
	for _, n := range []int{0, 1, 2, 3} {
		if c := counter(t, r.c, core.Component, n, "epoch_commits"); c != 1 {
			t.Fatalf("node %d counted %d epoch commits, want 1", n, c)
		}
	}
}

// A frame from an older epoch arriving at a NIC that has moved on is
// acked-as-dropped: the payload is not delivered, but the sender's window
// advances — the departed-NIC rule that keeps the root from deadlocking.
func TestStaleEpochFrameAckedAsDropped(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		rollEpoch(p, r, 1, 2) // node 2 moves ahead; everyone else stays at 0
		// McastSync returning proves node 2's rejection still acked.
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(64))
	})
	r.run(t)
	if len(*got) != 2 {
		t.Fatalf("delivered to %d nodes, want 2 (node 2 must reject)", len(*got))
	}
	if _, ok := (*got)[2]; ok {
		t.Fatal("stale-epoch frame was delivered at the node that moved ahead")
	}
	stale, acked := counter(t, r.c, core.Component, 2, "stale_epoch_drops"), counter(t, r.c, core.Component, 2, "acked_as_dropped")
	if stale == 0 || acked == 0 {
		t.Fatalf("stale frame not counted: %d stale drops, %d acked as dropped", stale, acked)
	}
}

// A frame from a *future* epoch (the receiver has not committed yet) is
// silently dropped; the parent keeps retransmitting and delivery
// completes once the receiver commits — nothing is lost across the gap.
func TestFutureEpochFrameDeliveredAfterCommit(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		rollEpoch(p, r, 1, 0, 1, 3) // node 2 lags at epoch 0
		r.c.Nodes[0].Ext.Mcast(p, r.ports[0], r.gid, pattern(64))
		p.Sleep(300 * sim.Microsecond)
		if counter(t, r.c, core.Component, 2, "future_epoch_drops") == 0 {
			t.Error("lagging node accepted (or never saw) a future-epoch frame")
		}
		rollEpoch(p, r, 1, 2) // node 2 catches up; retransmits now land
		r.ports[0].WaitSendDone(p)
	})
	r.run(t)
	if len(*got) != 3 {
		t.Fatalf("delivered to %d nodes, want all 3 after the laggard commits", len(*got))
	}
}

// newRigEpoch is newRig with the group installed at a caller-chosen
// initial epoch — the wraparound tests start at the top of the uint32
// epoch space.
func newRigEpoch(t *testing.T, nodes int, epoch uint32) *rig {
	t.Helper()
	c := cluster.New(nodes)
	r := &rig{c: c, ports: c.OpenPorts(testPort), gid: 7}
	r.tr = tree.Flat(0, c.Members())
	left := 0
	for _, n := range c.Members() {
		left++
		c.Nodes[n].Ext.InstallGroupEpoch(r.gid, r.tr, testPort, testPort, epoch, func() { left-- })
	}
	c.Run()
	if left != 0 {
		t.Fatalf("%d installs incomplete after quiescence", left)
	}
	return r
}

// Regression (epoch wraparound): the epoch counter lives in uint32
// serial-number space. After the group rolls past MaxUint32 to epoch 1
// (the coordinator skips the static-reserved 0), a frame still stamped
// MaxUint32 arriving at a moved-on NIC must classify as STALE and be
// acked-as-dropped. A raw `<` comparison classifies it as future and
// drops it silently, so the sender retransmits forever — this test then
// fails with node 2 undelivered frames never acked and zero
// StaleEpochDrops.
func TestStaleClassificationAcrossEpochWrap(t *testing.T) {
	const top = ^uint32(0) // MaxUint32: the last epoch before the wrap
	r := newRigEpoch(t, 4, top)
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		rollEpoch(p, r, 1, 2) // node 2 wraps to epoch 1; everyone else stays at MaxUint32
		// McastSync returning proves node 2's rejection was acked (stale),
		// not silently dropped (future) — the wrap-unsafe failure mode.
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(64))
	})
	r.run(t)
	if len(*got) != 2 {
		t.Fatalf("delivered to %d nodes, want 2 (node 2 must reject as stale)", len(*got))
	}
	if _, ok := (*got)[2]; ok {
		t.Fatal("pre-wrap frame was delivered at the node that wrapped ahead")
	}
	stale, acked := counter(t, r.c, core.Component, 2, "stale_epoch_drops"), counter(t, r.c, core.Component, 2, "acked_as_dropped")
	if stale == 0 || acked == 0 {
		t.Fatalf("pre-wrap frame not classified stale across the wrap: %d stale drops, %d acked as dropped", stale, acked)
	}
	if future := counter(t, r.c, core.Component, 2, "future_epoch_drops"); future != 0 {
		t.Fatalf("pre-wrap frame misclassified as future %d times", future)
	}
}

// Regression (epoch wraparound, the other direction): a post-wrap frame
// (epoch 1) reaching a NIC still at MaxUint32 must classify as FUTURE —
// silently dropped until this NIC commits, after which the parent's
// retransmissions land. A raw `<` would call it stale and ack it as
// dropped, permanently losing the payload at the laggard.
func TestFutureClassificationAcrossEpochWrap(t *testing.T) {
	const top = ^uint32(0)
	r := newRigEpoch(t, 4, top)
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		rollEpoch(p, r, 1, 0, 1, 3) // node 2 lags at MaxUint32
		if ep, live := r.c.Nodes[0].Ext.GroupEpoch(r.gid); ep != 1 || !live {
			t.Errorf("root at epoch %d live=%v after the wrap, want 1/true", ep, live)
		}
		r.c.Nodes[0].Ext.Mcast(p, r.ports[0], r.gid, pattern(64))
		p.Sleep(300 * sim.Microsecond)
		if counter(t, r.c, core.Component, 2, "future_epoch_drops") == 0 {
			t.Error("laggard accepted (or never saw) a post-wrap future-epoch frame")
		}
		if counter(t, r.c, core.Component, 2, "acked_as_dropped") != 0 {
			t.Error("laggard acked-as-dropped a future frame — wrap misclassification")
		}
		rollEpoch(p, r, 1, 2) // node 2 wraps too; retransmits now land
		r.ports[0].WaitSendDone(p)
	})
	r.run(t)
	if len(*got) != 3 {
		t.Fatalf("delivered to %d nodes, want all 3 after the laggard wraps", len(*got))
	}
}

// Committing an epoch nobody prepared, or regressing a live epoch, are
// firmware protocol violations and panic with the sentinel errors.
func TestEpochProtocolViolationsPanic(t *testing.T) {
	check := func(name string, want error, drive func(r *rig)) {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 2, tree.Flat, nil)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic (want %v)", name, want)
				}
			}()
			drive(r)
			r.c.Eng.Run()
		})
	}
	check("commit-unprepared", core.ErrNotPrepared, func(r *rig) {
		r.c.Nodes[0].Ext.CommitGroupEpoch(r.gid, 3, nil)
	})
	check("epoch-regression", core.ErrEpochRegressed, func(r *rig) {
		r.c.Nodes[0].Ext.PrepareGroupEpoch(r.gid, r.tr, testPort, testPort, 0, nil)
	})
	check("departure-of-unknown-group", core.ErrNoSuchGroup, func(r *rig) {
		r.c.Nodes[0].Ext.PrepareGroupEpoch(gm.GroupID(999), nil, testPort, testPort, 1, nil)
	})
}
