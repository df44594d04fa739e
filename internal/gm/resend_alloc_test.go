//go:build !race

package gm_test

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// allocsPerResend runs a workload of msgs messages at 5 % loss and loss-free
// on otherwise identical clusters and reports the lossy run's extra heap
// objects per retransmission (unicast, multicast and collective counters
// together). What
// every message costs — frames, host processes — is the same in both runs;
// what loss adds besides the retransmissions themselves is the free lists'
// growth to a higher high-water mark, a one-off the long run amortizes.
func allocsPerResend(t *testing.T, nodes, msgs int, drive func(c *cluster.Cluster, ports []*gm.Port, msgs int)) float64 {
	t.Helper()
	run := func(loss float64) (objects, retransmits uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := cluster.New(nodes, cluster.WithLossRate(loss), cluster.WithSeed(3))
		drive(c, c.OpenPorts(1), msgs)
		c.Eng.Run()
		runtime.ReadMemStats(&after)
		if live := c.Eng.LiveProcs(); live != 0 {
			t.Fatalf("%d processes never finished at loss %v", live, loss)
		}
		c.Eng.Kill()
		snap := c.Nodes[0].HW.Registry().Snapshot()
		for _, n := range c.Nodes {
			retransmits += counter(t, snap, gm.Component, int(n.ID), "retransmits") +
				counter(t, snap, core.Component, int(n.ID), "retransmits") +
				counter(t, snap, coll.Component, int(n.ID), "retransmits")
		}
		return after.Mallocs - before.Mallocs, retransmits
	}
	run(0) // one-time set-up (package caches, lazily built tables) is paid here
	lossy, resends := run(0.05)
	clean, none := run(0)
	if none != 0 || resends < 200 {
		t.Fatalf("%d retransmissions at 5 %% loss and %d loss-free: want at least 200 and none", resends, none)
	}
	per := (float64(lossy) - float64(clean)) / float64(resends)
	t.Logf("%d retransmissions, %.2f extra objects each", resends, per)
	return per
}

// A go-back-N retransmission — the LANai's retransmit processing, a send
// buffer, the SDMA from host memory, the wire — runs on a pooled packet
// descriptor like every first transmission, unicast and multicast alike: no
// closure per step, no buffer token on the heap.
func TestAllocResend(t *testing.T) {
	const size = 1024
	unicast := allocsPerResend(t, 2, 1000, func(c *cluster.Cluster, ports []*gm.Port, msgs int) {
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[1].Provide(size)
			for i := 0; i < msgs; i++ {
				ports[1].Recv(p)
				ports[1].Provide(size)
			}
		})
		c.Eng.Spawn("send", func(p *sim.Proc) {
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				ports[0].SendSync(p, 1, 1, msg)
			}
		})
	})
	multicast := allocsPerResend(t, 4, 2000, func(c *cluster.Cluster, ports []*gm.Port, msgs int) {
		ready := c.InstallGroup(5, tree.Binomial(0, c.Members()), 1, 1)
		for n := 1; n < len(ports); n++ {
			port := ports[n]
			c.Eng.Spawn("recv", func(p *sim.Proc) {
				port.Provide(size)
				for i := 0; i < msgs; i++ {
					port.Recv(p)
					port.Provide(size)
				}
			})
		}
		c.Eng.Spawn("root", func(p *sim.Proc) {
			for !ready() {
				p.Sleep(sim.Micros(1))
			}
			msg := make([]byte, size)
			for i := 0; i < msgs; i++ {
				c.Nodes[0].Ext.McastSync(p, ports[0], 5, msg)
			}
		})
	})
	for name, per := range map[string]float64{"unicast": unicast, "multicast": multicast} {
		if per > 0.1 {
			t.Errorf("a %s retransmission allocates %.2f objects, want at most 0.1", name, per)
		}
	}
	// A collective retransmission re-injects the frame its window filed; what
	// remains is the receive and ack processing the extra copies cost.
	collective := allocsPerResend(t, 8, 400, func(c *cluster.Cluster, ports []*gm.Port, rounds int) {
		const gid = 5
		mcastReady := c.InstallGroup(gid, tree.Binomial(0, c.Members()), 1, 1)
		collReady := c.InstallCollGroup(gid, c.Members(), 1)
		for i, n := range c.Nodes {
			port := ports[i]
			c.SpawnOn(n.ID, "coll", func(p *sim.Proc) {
				for !mcastReady() || !collReady() {
					p.Sleep(sim.Micros(1))
				}
				vec := []int64{int64(i)}
				for r := 0; r < rounds; r++ {
					n.Coll.Barrier(p, port, gid)
					if i != 0 {
						port.Provide(8)
					}
					n.Coll.Allreduce(p, port, gid, vec, coll.OpSum)
				}
			})
		}
	})
	if collective > 0.8 {
		t.Errorf("a collective retransmission allocates %.2f objects, want at most 0.8", collective)
	}
}

// counter reads one counter out of a snapshot. A key no instrument reports
// fails the test, so a misspelled name cannot pass as a zero count.
func counter(t testing.TB, s metrics.Snapshot, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}
