package core_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// TestSoakMixedTraffic is the kitchen-sink integration test: on one lossy
// 12-node cluster, simultaneously run
//   - two multicast groups with different roots and tree shapes,
//   - background unicast ping-pong pairs,
//   - a NIC-level barrier group,
//   - a NIC-based reduction group,
//
// and verify every channel's integrity and ordering at the end. This is
// the closest the suite gets to a production cluster's concurrent life.
func TestSoakMixedTraffic(t *testing.T) {
	const (
		nodes     = 12
		rounds    = 6
		mcPortA   = gm.PortID(1)
		mcPortB   = gm.PortID(2)
		uniPort   = gm.PortID(3)
		barPort   = gm.PortID(4)
		redPort   = gm.PortID(5)
		groupA    = gm.GroupID(101)
		groupB    = gm.GroupID(102)
		barGroup  = gm.GroupID(103)
		redGroup  = gm.GroupID(104)
		rootA     = 0
		rootB     = 5
		lossRate  = 0.015
		timeLimit = 2 * sim.Second
	)
	cfg := cluster.DefaultConfig(nodes)
	cfg.LossRate = lossRate
	cfg.Seed = 2003
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))

	portsA := c.OpenPorts(mcPortA)
	portsB := c.OpenPorts(mcPortB)
	portsU := c.OpenPorts(uniPort)
	portsBar := c.OpenPorts(barPort)
	portsRed := c.OpenPorts(redPort)

	c.InstallGroup(groupA, tree.Binomial(rootA, c.Members()), mcPortA, mcPortA)
	treeB := cfg.OptimalTree(fabric.NodeID(rootB), c.Members(), 2000)
	c.InstallGroup(groupB, treeB, mcPortB, mcPortB)
	c.InstallGroup(redGroup, tree.Binomial(0, c.Members()), redPort, redPort)
	c.InstallCollGroup(barGroup, c.Members(), barPort)

	msgsA := make([][]byte, rounds)
	msgsB := make([][]byte, rounds)
	for i := range msgsA {
		msgsA[i] = pattern(3000 + 777*i)
		msgsA[i][0] = byte(i)
		msgsB[i] = pattern(600 + 333*i)
		msgsB[i][0] = byte(100 + i)
	}

	okA, okB := 0, 0
	// Multicast group A receivers.
	for n := 0; n < nodes; n++ {
		if n == rootA {
			continue
		}
		n := n
		c.Eng.Spawn("recvA", func(p *sim.Proc) {
			portsA[n].ProvideN(rounds, 1<<14)
			for i := 0; i < rounds; i++ {
				ev := portsA[n].Recv(p)
				if bytes.Equal(ev.Data, msgsA[i]) {
					okA++
				}
			}
		})
	}
	// Multicast group B receivers.
	for n := 0; n < nodes; n++ {
		if n == rootB {
			continue
		}
		n := n
		c.Eng.Spawn("recvB", func(p *sim.Proc) {
			portsB[n].ProvideN(rounds, 1<<13)
			for i := 0; i < rounds; i++ {
				ev := portsB[n].Recv(p)
				if bytes.Equal(ev.Data, msgsB[i]) {
					okB++
				}
			}
		})
	}
	// Roots.
	c.Eng.Spawn("rootA", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			c.Nodes[rootA].Ext.McastSync(p, portsA[rootA], groupA, msgsA[i])
		}
	})
	c.Eng.Spawn("rootB", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			c.Nodes[rootB].Ext.Mcast(p, portsB[rootB], groupB, msgsB[i])
		}
		for i := 0; i < rounds; i++ {
			portsB[rootB].WaitSendDone(p)
		}
	})
	// Unicast ping-pong pairs on the remaining port.
	pingOK := 0
	for pair := 0; pair < nodes/2; pair++ {
		a, b := pair, nodes-1-pair
		if a >= b {
			continue
		}
		c.Eng.Spawn("ping", func(p *sim.Proc) {
			portsU[a].ProvideN(rounds, 512)
			for i := 0; i < rounds; i++ {
				portsU[a].Send(p, fabric.NodeID(b), uniPort, []byte{byte(i), byte(a)})
				ev := portsU[a].Recv(p)
				if ev.Data[0] == byte(i) {
					pingOK++
				}
			}
		})
		c.Eng.Spawn("pong", func(p *sim.Proc) {
			portsU[b].ProvideN(rounds, 512)
			for i := 0; i < rounds; i++ {
				ev := portsU[b].Recv(p)
				portsU[b].Keep(ev) // the echo reads ev.Data until it completes
				portsU[b].Send(p, fabric.NodeID(a), uniPort, ev.Data)
			}
		})
	}
	// Barrier + reduce participants on every node.
	barDone := 0
	var redResults []int64
	for n := 0; n < nodes; n++ {
		n := n
		c.Eng.Spawn("collective", func(p *sim.Proc) {
			if n != 0 {
				portsRed[n].ProvideN(rounds, 128)
			}
			for i := 0; i < rounds; i++ {
				c.Nodes[n].Coll.Barrier(p, portsBar[n], barGroup)
				res := c.Nodes[n].Coll.Allreduce(p, portsRed[n], redGroup, []int64{int64(n)}, coll.OpSum)
				if n == 0 {
					redResults = append(redResults, res[0])
				}
			}
			barDone++
		})
	}

	c.Eng.RunUntil(timeLimit)
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("soak stalled with %d live processes at %v", live, c.Eng.Now())
	}
	c.Eng.Kill()

	if okA != (nodes-1)*rounds {
		t.Errorf("group A delivered %d/%d intact in-order messages", okA, (nodes-1)*rounds)
	}
	if okB != (nodes-1)*rounds {
		t.Errorf("group B delivered %d/%d intact in-order messages", okB, (nodes-1)*rounds)
	}
	if want := (nodes / 2) * rounds; pingOK != want {
		t.Errorf("ping-pong completed %d/%d rounds", pingOK, want)
	}
	if barDone != nodes {
		t.Errorf("%d/%d nodes finished the barrier/reduce loop", barDone, nodes)
	}
	wantSum := int64(nodes * (nodes - 1) / 2)
	for i, s := range redResults {
		if s != wantSum {
			t.Errorf("reduce round %d sum %d, want %d", i, s, wantSum)
		}
	}
	// The loss rate must actually have exercised recovery somewhere.
	var retrans uint64
	for _, n := range c.Nodes {
		for _, comp := range []string{core.Component, coll.Component, gm.Component} {
			retrans += counter(t, c, comp, int(n.ID), "retransmits")
		}
	}
	if retrans == 0 {
		t.Error("soak with 1.5% loss saw zero retransmissions")
	}
}
