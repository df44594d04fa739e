package core_test

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tree"
)

// recoverErr runs f and returns the recovered panic value as an error.
func recoverErr(t *testing.T, f func()) (err error) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected a panic")
		}
		e, ok := v.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", v, v)
		}
		err = e
	}()
	f()
	return nil
}

func TestErrNoExtension(t *testing.T) {
	c := cluster.New(2, cluster.WithoutExtension())
	if err := recoverErr(t, func() { core.FromNIC(c.Nodes[0].NIC) }); !errors.Is(err, core.ErrNoExtension) {
		t.Errorf("FromNIC without extension: got %v, want ErrNoExtension", err)
	}
}

func TestErrInvalidTree(t *testing.T) {
	c := cluster.New(4)
	// Child 1 under non-root parent 2 violates the ID-sorted invariant;
	// InstallGroup refuses it synchronously.
	bad := tree.FromParents(0, map[fabric.NodeID]fabric.NodeID{2: 0, 1: 2})
	if err := recoverErr(t, func() {
		c.Nodes[0].Ext.InstallGroup(9, bad, 1, 1, nil)
	}); !errors.Is(err, core.ErrInvalidTree) {
		t.Errorf("invalid tree: got %v, want ErrInvalidTree", err)
	}
}

// Misuse detected inside the simulated firmware (HostPost/CPUDo callbacks)
// panics out of Engine.Run rather than the posting call; these tests
// recover at the Run boundary.

func TestErrGroupInstalled(t *testing.T) {
	c := cluster.New(4)
	tr := tree.Chain(0, c.Members())
	c.Nodes[0].Ext.InstallGroup(7, tr, 1, 1, nil)
	c.Nodes[0].Ext.InstallGroup(7, tr, 1, 1, nil)
	if err := recoverErr(t, func() { c.Eng.Run() }); !errors.Is(err, core.ErrGroupInstalled) {
		t.Errorf("double install: got %v, want ErrGroupInstalled", err)
	}
}

// Removing a group the NIC does not hold, by the departure path (a
// nil-tree epoch), is a firmware protocol violation: ErrNoSuchGroup.
func TestErrNoSuchGroupOnRemove(t *testing.T) {
	c := cluster.New(2)
	c.Nodes[0].Ext.PrepareGroupEpoch(42, nil, 1, 1, 1, nil)
	if err := recoverErr(t, func() { c.Eng.Run() }); !errors.Is(err, core.ErrNoSuchGroup) {
		t.Errorf("remove unknown group: got %v, want ErrNoSuchGroup", err)
	}
}

func TestHostCallSynchronousErrors(t *testing.T) {
	c := cluster.New(4)
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Chain(0, c.Members()), 1, 1)
	c.Eng.Spawn("host", func(p *sim.Proc) {
		for !ready() {
			p.Sleep(sim.Micros(1))
		}
		ext0 := c.Nodes[0].Ext
		// Port on node 1 presented to node 0's extension.
		if err := recoverErr(t, func() { ext0.Mcast(p, ports[1], 7, []byte("x")) }); !errors.Is(err, core.ErrWrongNIC) {
			t.Errorf("wrong-NIC mcast: got %v, want ErrWrongNIC", err)
		}
		coll0 := c.Nodes[0].Coll
		if err := recoverErr(t, func() { coll0.Barrier(p, ports[1], 7) }); !errors.Is(err, core.ErrWrongNIC) {
			t.Errorf("wrong-NIC barrier: got %v, want ErrWrongNIC", err)
		}
		// A reduce vector larger than one packet is refused up front.
		huge := make([]int64, c.Cfg.GM.MTU)
		if err := recoverErr(t, func() { coll0.Reduce(p, ports[0], 7, huge, coll.OpSum) }); !errors.Is(err, coll.ErrBadReduce) {
			t.Errorf("oversized reduce: got %v, want ErrBadReduce", err)
		}
	})
	c.Eng.Run()
	c.Eng.Kill()
}

func TestErrNoSuchGroupOnMcast(t *testing.T) {
	c := cluster.New(2)
	ports := c.OpenPorts(1)
	c.Eng.Spawn("host", func(p *sim.Proc) {
		c.Nodes[0].Ext.Mcast(p, ports[0], 99, []byte("x"))
	})
	if err := recoverErr(t, func() { c.Eng.Run() }); !errors.Is(err, core.ErrNoSuchGroup) {
		t.Errorf("mcast on unknown group: got %v, want ErrNoSuchGroup", err)
	}
}

func TestErrNotRoot(t *testing.T) {
	c := cluster.New(4)
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Chain(0, c.Members()), 1, 1)
	c.Eng.Spawn("host", func(p *sim.Proc) {
		for !ready() {
			p.Sleep(sim.Micros(1))
		}
		c.Nodes[1].Ext.Mcast(p, ports[1], 7, []byte("x"))
	})
	if err := recoverErr(t, func() { c.Eng.Run() }); !errors.Is(err, core.ErrNotRoot) {
		t.Errorf("non-root mcast: got %v, want ErrNotRoot", err)
	}
}

func TestBarrierErrors(t *testing.T) {
	c := cluster.New(4)
	members := c.Members()
	if err := recoverErr(t, func() {
		c.Nodes[3].Coll.Install(5, members[:2], 1, nil)
	}); !errors.Is(err, core.ErrNotMember) {
		t.Errorf("non-member barrier install: got %v, want ErrNotMember", err)
	}

	ports := c.OpenPorts(1)
	c.Eng.Spawn("b", func(p *sim.Proc) {
		c.Nodes[0].Coll.Barrier(p, ports[0], 5)
	})
	if err := recoverErr(t, func() { c.Eng.Run() }); !errors.Is(err, core.ErrNoSuchGroup) {
		t.Errorf("barrier on uninstalled group: got %v, want ErrNoSuchGroup", err)
	}
}
