package cluster_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The ports of the frame tests: unicast on one, the multicast group and the
// collective group (which shares the multicast group's id for allreduce's
// downward multicast) on the other.
const (
	framesUnicastPort, framesGroupPort = gm.PortID(1), gm.PortID(2)
	framesGroup                        = gm.GroupID(9)
)

// framesCluster builds a cluster with both groups installed over every node.
func framesCluster(t *testing.T, nodes int, opts []cluster.Option, collOpts ...coll.Option) (*cluster.Cluster, []*gm.Port, []*gm.Port) {
	t.Helper()
	c := cluster.New(nodes, opts...)
	uni, grp := c.OpenPorts(framesUnicastPort), c.OpenPorts(framesGroupPort)
	mcast := c.InstallGroup(framesGroup, tree.Binomial(0, c.Members()), framesGroupPort, framesGroupPort)
	collective := c.InstallCollGroup(framesGroup, c.Members(), framesGroupPort, collOpts...)
	c.Run()
	if !mcast() || !collective() {
		t.Fatal("group installation did not settle")
	}
	return c, uni, grp
}

// framesPhase is one kind of traffic of the holder-balance test: run is
// node n's process.
type framesPhase struct {
	name string
	run  func(t *testing.T, c *cluster.Cluster, uni, grp []*gm.Port, n int, p *sim.Proc)
}

// framesPhases are the traffic of the holder-balance test, each run to
// quiescence on its own: unicast both ways between neighbours (so a data
// frame can carry the reverse direction's ack), multi-packet multicasts
// from the root, and the NIC barrier, allreduce and allgather.
func framesPhases() []framesPhase {
	const msgs, size = 6, 5000
	msg := func(from, i int) []byte {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(from*31 + i*7 + j)
		}
		return b
	}
	return []framesPhase{
		{"unicast", func(t *testing.T, c *cluster.Cluster, uni, _ []*gm.Port, n int, p *sim.Proc) {
			peer := n ^ 1
			uni[n].ProvideN(msgs, size)
			for i := range msgs {
				uni[n].Send(p, fabric.NodeID(peer), framesUnicastPort, msg(n, i))
			}
			for i := range msgs {
				ev := uni[n].Recv(p)
				if !bytes.Equal(ev.Data, msg(peer, i)) {
					t.Errorf("node %d: unicast %d from %d arrived damaged", n, i, peer)
				}
			}
			for range msgs {
				uni[n].WaitSendDone(p)
			}
		}},
		{"multicast", func(t *testing.T, c *cluster.Cluster, _, grp []*gm.Port, n int, p *sim.Proc) {
			if n == 0 {
				for i := range msgs {
					c.Nodes[0].Ext.Mcast(p, grp[0], framesGroup, msg(0, i))
				}
				for range msgs {
					grp[0].WaitSendDone(p)
				}
				return
			}
			grp[n].ProvideN(msgs, size)
			for i := range msgs {
				ev := grp[n].Recv(p)
				if !bytes.Equal(ev.Data, msg(0, i)) {
					t.Errorf("node %d: multicast %d arrived damaged", n, i)
				}
			}
		}},
		{"barrier", func(_ *testing.T, c *cluster.Cluster, _, grp []*gm.Port, n int, p *sim.Proc) {
			for range 3 {
				c.Nodes[n].Coll.Barrier(p, grp[n], framesGroup)
			}
		}},
		{"allreduce", func(t *testing.T, c *cluster.Cluster, _, grp []*gm.Port, n int, p *sim.Proc) {
			for r := range 3 {
				if n != 0 {
					grp[n].Provide(16)
				}
				got := c.Nodes[n].Coll.Allreduce(p, grp[n], framesGroup, []int64{int64(r), 1}, coll.OpSum)
				if want := []int64{int64(r * len(c.Nodes)), int64(len(c.Nodes))}; !slices.Equal(got, want) {
					t.Errorf("node %d: allreduce %d gave %v, want %v", n, r, got, want)
				}
			}
		}},
		{"allgather", func(t *testing.T, c *cluster.Cluster, _, grp []*gm.Port, n int, p *sim.Proc) {
			const veclen = 300 // several chunks a member under the tree algorithm
			for r := range 2 {
				vec := make([]int64, veclen)
				for j := range vec {
					vec[j] = int64(1000*r + 100*n + j)
				}
				if got := c.Nodes[n].Coll.Allgather(p, grp[n], framesGroup, vec); len(got) != veclen*len(c.Nodes) {
					t.Errorf("node %d: allgather %d gave %d values, want %d", n, r, len(got), veclen*len(c.Nodes))
				}
			}
		}},
	}
}

// Every frame a loss-free cluster makes is back in its engine's pool once
// the traffic has drained, as every descriptor is back on its NIC's free
// list: a holder that kept a frame past its use would leave the pool short,
// and one that gave it back early would have panicked on an extra release.
// The traffic covers every holder — descriptors, packets in flight, unicast,
// multicast and collective send records, the store-and-forward list and the
// collectives' receive processing — under the default protocol, the ack
// economy (coalesced and piggybacked unicast acks, aggregated multicast
// acks), the store-and-forward and per-token multisend ablations, and the
// other barrier and allgather algorithms. The phases run on the engine
// itself, not Cluster.Run, which empties the pools at its end.
func TestFramesBalanceAtQuiescence(t *testing.T) {
	const nodes = 8
	cases := []struct {
		name     string
		opts     []cluster.Option
		collOpts []coll.Option
	}{
		{name: "default"},
		{name: "ack-economy", opts: []cluster.Option{cluster.WithAckEconomy(4)}},
		{name: "store-and-forward", opts: []cluster.Option{cluster.WithMutate(func(c *cluster.Config) {
			c.Mcast.Forward = core.ForwardStoreAndForward
		})}},
		{name: "multisend-tokens", opts: []cluster.Option{cluster.WithMutate(func(c *cluster.Config) {
			c.Mcast.Multisend = core.ModeTokens
		})}},
		{name: "tree-barrier-ring-allgather", collOpts: []coll.Option{
			coll.WithBarrierAlgo(coll.BarrierTree), coll.WithGatherAlgo(coll.GatherRing),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, uni, grp := framesCluster(t, nodes, tc.opts, tc.collOpts...)
			defer c.Kill()
			for _, ph := range framesPhases() {
				for n := range nodes {
					c.Eng.Spawn(ph.name, func(p *sim.Proc) { ph.run(t, c, uni, grp, n, p) })
				}
				c.Eng.Run()
				if live := c.LiveProcs(); live != 0 {
					t.Fatalf("%s: %d processes still blocked at quiescence", ph.name, live)
				}
				free, made := c.Nodes[0].NIC.Frames()
				if made == 0 || free != made {
					t.Errorf("%s: %d of the %d frames made are back in the pool, want all", ph.name, free, made)
				}
				for _, nd := range c.Nodes {
					if free, made := nd.NIC.Descriptors(); free != made {
						t.Errorf("%s: node %v has %d of %d descriptors free", ph.name, nd.ID, free, made)
					}
				}
			}
		})
	}
}

// A frame that crosses to another shard is pinned: it counts no holders
// from then on and never returns to a pool, so the two shards' engines,
// each on its own goroutine, never write it (under -race a write would be a
// reported race). Multicasts to members on the root's own shard give every
// frame back; multicasts whose tree crosses the cut give none back, and
// each is delivered intact all the same.
func TestShardedFramesPinned(t *testing.T) {
	const nodes, msgs, size = 16, 4, 10000
	c := cluster.New(nodes, cluster.WithShards(2))
	defer c.Kill()
	if c.Shards() != 2 {
		t.Fatalf("built %d shards, want 2", c.Shards())
	}
	local, remote := []fabric.NodeID{0}, []fabric.NodeID{0}
	for n := fabric.NodeID(1); n < nodes; n++ {
		if c.EngineOf(n) == c.EngineOf(0) {
			local = append(local, n)
		} else {
			remote = append(remote, n)
		}
	}
	ports := c.OpenPorts(1)
	groups := []struct {
		id      gm.GroupID
		members []fabric.NodeID
	}{{1, local}, {2, remote}}
	for _, g := range groups {
		c.InstallGroup(g.id, tree.Binomial(0, g.members), 1, 1)
	}
	c.Run()
	pkts := msgs * ((size + c.Cfg.GM.MTU - 1) / c.Cfg.GM.MTU)
	for _, g := range groups {
		free0, made0 := c.Nodes[0].NIC.Frames()
		for _, n := range g.members[1:] {
			c.SpawnOn(n, "recv", func(p *sim.Proc) {
				ports[n].ProvideN(msgs, size)
				for i := range msgs {
					ev := ports[n].Recv(p)
					if len(ev.Data) != size || ev.Data[size-1] != byte(i) {
						t.Errorf("group %d: node %v got a damaged message %d", g.id, n, i)
					}
				}
			})
		}
		c.SpawnOn(0, "root", func(p *sim.Proc) {
			for i := range msgs {
				msg := make([]byte, size)
				msg[size-1] = byte(i)
				c.Nodes[0].Ext.McastSync(p, ports[0], g.id, msg)
			}
		})
		c.Sharded().Run() // not Cluster.Run, which empties the pools
		free, made := c.Nodes[0].NIC.Frames()
		switch {
		case g.id == 1 && free != made:
			t.Errorf("on the root's shard %d of %d frames are back in its pool, want all", free, made)
		case g.id == 2 && (free != 0 || made-made0+free0 != pkts):
			t.Errorf("across the cut the root's shard used %d frames for %d packets and has %d back, want one a packet and none back",
				made-made0+free0, pkts, free)
		}
		if rf, rm := c.Nodes[remote[1]].NIC.Frames(); rm != 0 || rf != 0 {
			t.Errorf("group %d: the other shard's pool has %d of %d frames, want none made", g.id, rf, rm)
		}
	}
}
