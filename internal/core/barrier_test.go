package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

const barrierGID gm.GroupID = 50

// barrierRig builds a cluster with a barrier group over all nodes on a
// dedicated port, installed in every node's collective engine.
func barrierRig(t *testing.T, nodes int, mut func(*cluster.Config)) (*cluster.Cluster, []*gm.Port) {
	t.Helper()
	c := cluster.New(nodes, cluster.WithMutate(mut))
	ports := c.OpenPorts(9) // dedicated barrier port
	c.InstallCollGroup(barrierGID, c.Members(), 9)
	return c, ports
}

func TestNICBarrierSynchronizes(t *testing.T) {
	const nodes = 7
	c, ports := barrierRig(t, nodes, nil)
	entry := make([]sim.Time, nodes)
	exit := make([]sim.Time, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 40 * sim.Microsecond) // staggered arrival
			entry[i] = p.Now()
			c.Nodes[i].Coll.Barrier(p, ports[i], barrierGID)
			exit[i] = p.Now()
		})
	}
	c.Eng.Run()
	c.Eng.Kill()
	var lastEntry sim.Time
	for _, e := range entry {
		if e > lastEntry {
			lastEntry = e
		}
	}
	for i, x := range exit {
		if x < lastEntry {
			t.Fatalf("node %d left the barrier at %v before the last entry %v", i, x, lastEntry)
		}
	}
}

func TestNICBarrierRepeated(t *testing.T) {
	const nodes, rounds = 5, 8
	c, ports := barrierRig(t, nodes, nil)
	done := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(sim.Time((i*7+r*13)%50) * sim.Microsecond)
				c.Nodes[i].Coll.Barrier(p, ports[i], barrierGID)
				done[i]++
			}
		})
	}
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("barrier deadlocked with %d live procs", live)
	}
	c.Eng.Kill()
	for i, d := range done {
		if d != rounds {
			t.Fatalf("node %d completed %d barriers, want %d", i, d, rounds)
		}
	}
	if got := counter(t, c, coll.Component, 0, "barriers_done"); got != rounds {
		t.Fatalf("node 0 counted %d barrier completions, want %d", got, rounds)
	}
}

func TestNICBarrierUnderLoss(t *testing.T) {
	c, ports := barrierRig(t, 6, func(cfg *cluster.Config) {
		cfg.LossRate = 0.05
		cfg.Seed = 23
	})
	completed := 0
	for i := 0; i < 6; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			for r := 0; r < 4; r++ {
				c.Nodes[i].Coll.Barrier(p, ports[i], barrierGID)
				completed++
			}
		})
	}
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("lossy barrier stalled with %d live procs", live)
	}
	c.Eng.Kill()
	if completed != 24 {
		t.Fatalf("completed %d barrier exits, want 24", completed)
	}
	retr := uint64(0)
	for _, n := range c.Nodes {
		retr += counter(t, c, core.Component, int(n.ID), "retransmits") +
			counter(t, c, coll.Component, int(n.ID), "retransmits")
	}
	if retr == 0 {
		t.Fatal("5% loss produced no barrier retransmissions — reliability untested")
	}
}

func TestNICBarrierFasterThanHostDissemination(t *testing.T) {
	// The NIC barrier removes per-round host involvement; compare against
	// a host-level dissemination barrier over GM unicasts.
	const nodes = 8
	nic := func() sim.Time {
		c, ports := barrierRig(t, nodes, nil)
		var done sim.Time
		for i := 0; i < nodes; i++ {
			i := i
			c.Eng.Spawn("p", func(p *sim.Proc) {
				for r := 0; r < 10; r++ {
					c.Nodes[i].Coll.Barrier(p, ports[i], barrierGID)
				}
				if p.Now() > done {
					done = p.Now()
				}
			})
		}
		c.Eng.Run()
		c.Eng.Kill()
		return done
	}()
	host := func() sim.Time {
		c := cluster.New(nodes)
		ports := c.OpenPorts(9)
		var done sim.Time
		for i := 0; i < nodes; i++ {
			i := i
			c.Eng.Spawn("p", func(p *sim.Proc) {
				ports[i].ProvideN(10*4, 16)
				for r := 0; r < 10; r++ {
					for k := 1; k < nodes; k <<= 1 {
						dst := fabric.NodeID((i + k) % nodes)
						ports[i].Send(p, dst, 9, []byte{1})
						ports[i].Recv(p)
					}
				}
				if p.Now() > done {
					done = p.Now()
				}
			})
		}
		c.Eng.Run()
		c.Eng.Kill()
		return done
	}()
	if nic >= host {
		t.Fatalf("NIC barrier (%v) not faster than host dissemination (%v)", nic, host)
	}
}

func TestBarrierValidation(t *testing.T) {
	c := cluster.New(3)
	ports := c.OpenPorts(9)
	// Installing a barrier this node is not a member of panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-member install did not panic")
			}
		}()
		c.Nodes[0].Coll.Install(60, []fabric.NodeID{1, 2}, 9, nil)
	}()
	// Barrier on an uninstalled group panics (inside the firmware event).
	c.Eng.Spawn("p", func(p *sim.Proc) {
		c.Nodes[0].Coll.Barrier(p, ports[0], 61)
	})
	defer func() {
		if recover() == nil {
			t.Error("uninstalled barrier did not panic")
		}
	}()
	c.Eng.Run()
}

func TestSingletonBarrier(t *testing.T) {
	c, ports := barrierRig(t, 1, nil)
	passed := false
	c.Eng.Spawn("p", func(p *sim.Proc) {
		c.Nodes[0].Coll.Barrier(p, ports[0], barrierGID)
		passed = true
	})
	c.Eng.Run()
	c.Eng.Kill()
	if !passed {
		t.Fatal("single-member barrier never opened")
	}
}
