package core_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

const testPort gm.PortID = 1

// rig assembles a cluster with one open port per node and an installed
// group over all nodes using the given tree builder.
type rig struct {
	c     *cluster.Cluster
	ports []*gm.Port
	tr    *tree.Tree
	gid   gm.GroupID
}

func newRig(t *testing.T, nodes int, build func(root fabric.NodeID, members []fabric.NodeID) *tree.Tree, mut func(*cluster.Config)) *rig {
	t.Helper()
	c := cluster.New(nodes, cluster.WithMutate(mut))
	r := &rig{c: c, ports: c.OpenPorts(testPort), gid: 7}
	r.tr = build(0, c.Members())
	ready := c.InstallGroup(r.gid, r.tr, testPort, testPort)
	// Land the installs before any test process runs: a proc spawned at the
	// ambient domain would otherwise race the per-node install events at
	// equal timestamps (e.g. an epoch roll preparing a group whose install
	// has not fired yet).
	c.Run()
	if !ready() {
		t.Fatal("group install incomplete after quiescence")
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	r.c.Eng.Run()
	r.c.Eng.Kill()
}

// counter reads one counter out of c's metrics registry. A key no
// instrument reports fails the test, so a misspelled name cannot pass as a
// zero count.
func counter(t testing.TB, c *cluster.Cluster, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, v := range c.Nodes[0].HW.Registry().Snapshot().Counters {
		if v.Key == k {
			return v.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

// spawnReceivers starts a receiving process on every non-root member that
// collects copies of `count` messages into got[node] (the port takes each
// event's buffer back at the next receive).
func (r *rig) spawnReceivers(count, bufcap int) *map[fabric.NodeID][][]byte {
	got := make(map[fabric.NodeID][][]byte)
	for _, n := range r.tr.Nodes() {
		if n == r.tr.Root {
			continue
		}
		n := n
		r.c.Eng.Spawn("recv", func(p *sim.Proc) {
			port := r.ports[n]
			port.ProvideN(count, bufcap)
			for i := 0; i < count; i++ {
				ev := port.Recv(p)
				got[n] = append(got[n], bytes.Clone(ev.Data))
			}
		})
	}
	return &got
}

func TestMultisendFlatDeliversToAll(t *testing.T) {
	r := newRig(t, 9, tree.Flat, nil)
	msg := pattern(256)
	got := r.spawnReceivers(1, 1024)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, msg)
	})
	r.run(t)
	if len(*got) != 8 {
		t.Fatalf("delivered to %d nodes, want 8", len(*got))
	}
	for n, msgs := range *got {
		if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
			t.Fatalf("node %v got corrupted data", n)
		}
	}
	// Flat tree: no forwarding anywhere.
	for _, n := range r.c.Nodes {
		if counter(t, r.c, core.Component, int(n.ID), "mcast_forwarded") != 0 {
			t.Fatalf("flat multisend forwarded packets at %v", n.ID)
		}
	}
	if sent := counter(t, r.c, core.Component, 0, "mcast_sent"); sent != 8 {
		t.Fatalf("root sent %d replicas, want 8", sent)
	}
}

func TestMulticastBinomialForwarding(t *testing.T) {
	r := newRig(t, 16, tree.Binomial, nil)
	msg := pattern(10000) // three packets
	got := r.spawnReceivers(1, 1<<14)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, msg)
	})
	r.run(t)
	if len(*got) != 15 {
		t.Fatalf("delivered to %d nodes, want 15", len(*got))
	}
	for n, msgs := range *got {
		if !bytes.Equal(msgs[0], msg) {
			t.Fatalf("node %v corrupted", n)
		}
	}
	forwarded := uint64(0)
	for _, n := range r.c.Nodes {
		forwarded += counter(t, r.c, core.Component, int(n.ID), "mcast_forwarded")
	}
	if forwarded == 0 {
		t.Fatal("binomial multicast never used NIC-based forwarding")
	}
	// Completion implies every record retired everywhere.
	for _, n := range r.c.Nodes {
		if out := n.Ext.OutstandingRecords(); out != 0 {
			t.Fatalf("node %v still holds %d records after completion", n.ID, out)
		}
	}
}

func TestMulticastOptimalTree(t *testing.T) {
	cfg := cluster.DefaultConfig(16)
	build := func(root fabric.NodeID, members []fabric.NodeID) *tree.Tree {
		return cfg.OptimalTree(root, members, 64)
	}
	r := newRig(t, 16, build, nil)
	msg := pattern(64)
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, msg)
	})
	r.run(t)
	if len(*got) != 15 {
		t.Fatalf("delivered to %d nodes, want 15", len(*got))
	}
}

func TestMulticastOrderedPerGroup(t *testing.T) {
	r := newRig(t, 8, tree.Binomial, nil)
	const count = 12
	got := r.spawnReceivers(count, 512)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r.c.Nodes[0].Ext.Mcast(p, r.ports[0], r.gid, []byte{byte(i), 42})
		}
		for i := 0; i < count; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	for n, msgs := range *got {
		if len(msgs) != count {
			t.Fatalf("node %v got %d messages, want %d", n, len(msgs), count)
		}
		for i, m := range msgs {
			if m[0] != byte(i) {
				t.Fatalf("node %v message %d out of order (saw %d)", n, i, m[0])
			}
		}
	}
}

func TestMulticastUnderRandomLoss(t *testing.T) {
	r := newRig(t, 12, tree.Binomial, func(c *cluster.Config) {
		c.LossRate = 0.03
		c.Seed = 5
	})
	const count = 8
	msgs := make([][]byte, count)
	for i := range msgs {
		msgs[i] = pattern(500 + i*997)
		msgs[i][0] = byte(i)
	}
	got := r.spawnReceivers(count, 1<<14)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r.c.Nodes[0].Ext.Mcast(p, r.ports[0], r.gid, msgs[i])
		}
		for i := 0; i < count; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	r.run(t)
	if len(*got) != 11 {
		t.Fatalf("delivered to %d nodes, want 11", len(*got))
	}
	retrans := uint64(0)
	for n, g := range *got {
		if len(g) != count {
			t.Fatalf("node %v got %d messages under loss, want %d", n, len(g), count)
		}
		for i := range g {
			if !bytes.Equal(g[i], msgs[i]) {
				t.Fatalf("node %v message %d corrupted under loss", n, i)
			}
		}
	}
	for _, n := range r.c.Nodes {
		retrans += counter(t, r.c, core.Component, int(n.ID), "retransmits") +
			counter(t, r.c, coll.Component, int(n.ID), "retransmits")
	}
	if retrans == 0 {
		t.Fatal("3% loss over 12 nodes produced zero retransmissions — loss not exercised")
	}
}

func TestRetransmitOnlyToUnackedChildren(t *testing.T) {
	// Drop the first replica to exactly one child of the root; only that
	// child should be retransmitted to.
	r := newRig(t, 4, tree.Flat, nil)
	dropped := false
	r.c.Net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*gm.Frame)
		if ok && fr.Kind == gm.KindMcastData && p.Dst == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(64))
	})
	r.run(t)
	if len(*got) != 3 {
		t.Fatalf("delivered to %d nodes, want 3", len(*got))
	}
	if rt := counter(t, r.c, core.Component, 0, "retransmits") + counter(t, r.c, coll.Component, 0, "retransmits"); rt != 1 {
		t.Fatalf("root retransmitted %d packets, want exactly 1 (only the unacked child)", rt)
	}
	// 3 first transmissions + 1 retransmission.
	if sent := counter(t, r.c, core.Component, 0, "mcast_sent"); sent != 4 {
		t.Fatalf("root sent %d replicas, want 4", sent)
	}
}

func TestLateReceiveTokenStallsOnlySubtree(t *testing.T) {
	// Chain 0->1->2: node 1 posts its token late; node 2 can't hear until
	// node 1's NIC accepts (forwarding needs the in-sequence accept), but
	// everything must recover once the token appears.
	r := newRig(t, 3, tree.Chain, nil)
	var at1, at2 sim.Time
	r.c.Eng.Spawn("n1", func(p *sim.Proc) {
		p.Sleep(3 * sim.Millisecond)
		r.ports[1].Provide(256)
		r.ports[1].Recv(p)
		at1 = p.Now()
	})
	r.c.Eng.Spawn("n2", func(p *sim.Proc) {
		r.ports[2].Provide(256)
		r.ports[2].Recv(p)
		at2 = p.Now()
	})
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(32))
	})
	r.run(t)
	if at1 < 3*sim.Millisecond || at2 == 0 {
		t.Fatalf("deliveries at %v and %v; recovery after late token failed", at1, at2)
	}
	if counter(t, r.c, core.Component, 1, "no_token_drops") == 0 {
		t.Fatal("expected tokenless drops at the intermediate node")
	}
}

func TestForwardingPipelinesMultiPacketMessages(t *testing.T) {
	// Chain 0->1->2 with a 4-packet message: the leaf must finish well
	// before twice the full-message one-way time, which is what
	// store-and-forward at the intermediate host would cost.
	size := 16384
	r := newRig(t, 3, tree.Chain, nil)
	var leafAt sim.Time
	got := r.spawnReceivers(1, 1<<15)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(size))
	})
	r.run(t)
	_ = got
	leafAt = r.c.Eng.Now() // upper bound; refine via direct measure below

	// Measure one-hop full-message latency for reference.
	single := newRig(t, 2, tree.Chain, nil)
	var oneHop sim.Time
	single.c.Eng.Spawn("recv", func(p *sim.Proc) {
		single.ports[1].Provide(1 << 15)
		single.ports[1].Recv(p)
		oneHop = p.Now()
	})
	single.c.Eng.Spawn("root", func(p *sim.Proc) {
		single.c.Nodes[0].Ext.McastSync(p, single.ports[0], single.gid, pattern(size))
	})
	single.run(t)

	if leafAt >= 2*oneHop {
		t.Fatalf("two-hop delivery %v >= 2x one-hop %v: no pipelining", leafAt, oneHop)
	}
}

func TestUnicastUnaffectedByExtension(t *testing.T) {
	// Identical unicast workload on a plain cluster and on one with the
	// multicast extension installed: completion times must match exactly.
	run := func(plain bool) sim.Time {
		var opts []cluster.Option
		if plain {
			opts = append(opts, cluster.WithoutExtension())
		}
		c := cluster.New(2, opts...)
		ports := c.OpenPorts(testPort)
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[1].ProvideN(5, 8192)
			for i := 0; i < 5; i++ {
				ports[1].Recv(p)
			}
		})
		c.Eng.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				ports[0].SendSync(p, 1, testPort, pattern(1000*(i+1)))
			}
		})
		c.Eng.Run()
		c.Eng.Kill()
		return c.Eng.Now()
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("unicast timing changed with extension installed: %v vs %v", a, b)
	}
}

func TestConcurrentBroadcastsNoDeadlock(t *testing.T) {
	// Several roots broadcast simultaneously on ID-sorted trees with tiny
	// NIC buffer pools — the deadlock scenario the paper's sorting rule
	// prevents. Everything must complete.
	const nodes = 8
	cfg := cluster.DefaultConfig(nodes)
	cfg.NIC.SendBuffers = 2
	cfg.NIC.RecvBuffers = 2
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	roots := []fabric.NodeID{0, 3, 5}
	for i, root := range roots {
		tr := tree.Binomial(root, c.Members())
		c.InstallGroup(gm.GroupID(100+i), tr, testPort, testPort)
	}
	completed := 0
	delivered := 0
	for n := 0; n < nodes; n++ {
		n := n
		expect := 0
		for _, root := range roots {
			if fabric.NodeID(n) != root {
				expect++
			}
		}
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].ProvideN(expect*3, 4096)
			for i := 0; i < expect*3; i++ {
				ports[n].Recv(p)
				delivered++
			}
		})
	}
	for i, root := range roots {
		i, root := i, root
		c.Eng.Spawn("root", func(p *sim.Proc) {
			for j := 0; j < 3; j++ {
				c.Nodes[root].Ext.McastSync(p, ports[root], gm.GroupID(100+i), pattern(2048))
			}
			completed++
		})
	}
	c.Eng.Run()
	c.Eng.Kill()
	if completed != len(roots) {
		t.Fatalf("%d of %d roots completed; deadlock?", completed, len(roots))
	}
	want := 3 * (len(roots)*nodes - len(roots))
	if delivered != want {
		t.Fatalf("delivered %d messages, want %d", delivered, want)
	}
}

func TestMcastValidation(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	// Wrong port's NIC.
	r.c.Eng.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Mcast from foreign port did not panic")
			}
		}()
		r.c.Nodes[0].Ext.Mcast(p, r.ports[1], r.gid, []byte{1})
	})
	r.run(t)
}

func TestNonMemberDropsMcast(t *testing.T) {
	// A group over nodes {0,1,2} of a 4-node cluster: node 3 must never
	// see a delivery, and stray packets to it are counted.
	cfg := cluster.DefaultConfig(4)
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	members := []fabric.NodeID{0, 1, 2}
	tr := tree.Flat(0, members)
	c.InstallGroup(9, tr, testPort, testPort)
	for _, n := range []int{1, 2} {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(256)
			ports[n].Recv(p)
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], 9, pattern(32))
	})
	c.Eng.Run()
	c.Eng.Kill()
	if got := ports[3].PendingRecvs(); got != 0 {
		t.Fatalf("non-member received %d multicast messages", got)
	}
}

func TestGroupInstallValidatesTree(t *testing.T) {
	cfg := cluster.DefaultConfig(4)
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	c.OpenPorts(testPort)
	// Hand-build an invalid tree (child < parent under non-root).
	defer func() {
		if recover() == nil {
			t.Error("invalid tree accepted by InstallGroup")
		}
	}()
	bad := tree.Chain(0, c.Members())
	// Chain is valid; force mismatch by installing twice under same ID.
	c.InstallGroup(5, bad, testPort, testPort)
	c.InstallGroup(5, bad, testPort, testPort)
	c.Eng.Run()
}

// Property: any message size and member subset delivers identical bytes to
// every member over both binomial and optimal trees.
func TestMulticastIntegrityProperty(t *testing.T) {
	f := func(rawSize uint16, rawNodes, seed uint8) bool {
		nodes := int(rawNodes)%14 + 2
		size := int(rawSize) % 20000
		cfg := cluster.DefaultConfig(nodes)
		cfg.Seed = int64(seed) + 1
		c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
		ports := c.OpenPorts(testPort)
		tr := tree.Binomial(0, c.Members())
		c.InstallGroup(3, tr, testPort, testPort)
		msg := pattern(size)
		okCount := 0
		for n := 1; n < nodes; n++ {
			n := n
			c.Eng.Spawn("recv", func(p *sim.Proc) {
				ports[n].Provide(1 << 15)
				ev := ports[n].Recv(p)
				if bytes.Equal(ev.Data, msg) {
					okCount++
				}
			})
		}
		c.Eng.Spawn("root", func(p *sim.Proc) {
			c.Nodes[0].Ext.McastSync(p, ports[0], 3, msg)
		})
		c.Eng.Run()
		c.Eng.Kill()
		return okCount == nodes-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A group leaves every NIC by the membership roll's departure path, a
// nil-tree epoch prepared and committed on each member once the root's
// last message is acknowledged, and its id can then be installed afresh.
func TestRemoveGroup(t *testing.T) {
	r := newRig(t, 4, tree.Flat, nil)
	got := r.spawnReceivers(1, 256)
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(32))
		// Quiesced: all children acknowledged. Tear the group down.
		for _, n := range r.c.Nodes {
			n.Ext.PrepareGroupEpoch(r.gid, nil, testPort, testPort, 1, nil)
			n.Ext.CommitGroupEpoch(r.gid, 1, nil)
		}
	})
	r.run(t)
	if len(*got) != 3 {
		t.Fatalf("delivered to %d before removal, want 3", len(*got))
	}
	for _, n := range r.c.Nodes {
		if n.Ext.HasGroup(r.gid) {
			t.Fatalf("group still installed at %v after its departure", n.ID)
		}
	}
	// Re-install under the same ID must now succeed.
	r.c.Nodes[0].Ext.InstallGroup(r.gid, r.tr, testPort, testPort, nil)
	r.c.Eng.Run()
	if !r.c.Nodes[0].Ext.HasGroup(r.gid) {
		t.Fatal("re-install after removal failed")
	}
}

// Staging the departure of a group this NIC never installed panics in the
// firmware, not silently.
func TestRemoveUnknownGroupPanics(t *testing.T) {
	r := newRig(t, 2, tree.Flat, nil)
	r.c.Nodes[0].Ext.PrepareGroupEpoch(999, nil, testPort, testPort, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("removing unknown group did not panic")
		}
	}()
	r.c.Eng.Run()
}

// A stale packet arriving after a node has left the group is counted and
// dropped, not crashed on. Node 2 leaves by the membership roll's
// departure path, a nil-tree epoch prepared and committed on its own NIC,
// while the root still holds the old tree.
func TestMcastAfterRemovalDropsAsNonMember(t *testing.T) {
	r := newRig(t, 3, tree.Flat, nil)
	r.c.Eng.Spawn("recv1", func(p *sim.Proc) {
		r.ports[1].Provide(256)
		r.ports[1].Recv(p)
		// Node 2 removes its entry while node 1 still participates.
	})
	r.c.Eng.Spawn("recv2", func(p *sim.Proc) {
		r.ports[2].Provide(256)
		r.ports[2].Recv(p)
		r.c.Nodes[2].Ext.PrepareGroupEpoch(r.gid, nil, testPort, testPort, 1, nil)
		r.c.Nodes[2].Ext.CommitGroupEpoch(r.gid, 1, nil)
		p.Sleep(sim.Millisecond)
	})
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, pattern(16))
		// Wait for node 2's departure to land, then multicast again: node
		// 2 is no longer a member and must drop the packet.
		p.Sleep(500 * sim.Microsecond)
		r.c.Nodes[0].Ext.Mcast(p, r.ports[0], r.gid, pattern(16))
	})
	r.c.Eng.RunUntil(20 * sim.Millisecond)
	r.c.Eng.Kill()
	if r.c.Nodes[2].Ext.HasGroup(r.gid) {
		t.Fatal("the committed departure left node 2's entry in place")
	}
	if counter(t, r.c, core.Component, 2, "not_member_drops")+counter(t, r.c, coll.Component, 2, "not_member_drops") == 0 {
		t.Fatal("stale multicast to removed group not counted as non-member drop")
	}
}

func TestMulticastAcrossClosFabric(t *testing.T) {
	// 64 nodes span a two-level Clos: the multicast tree crosses leaf and
	// spine switches; everything must still deliver intact and in order.
	cfg := cluster.DefaultConfig(64)
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	tr := cfg.OptimalTree(0, c.Members(), 512)
	c.InstallGroup(31, tr, testPort, testPort)
	msg := pattern(512)
	delivered := 0
	for n := 1; n < 64; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].ProvideN(2, 1024)
			for i := 0; i < 2; i++ {
				if bytes.Equal(ports[n].Recv(p).Data, msg) {
					delivered++
				}
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			c.Nodes[0].Ext.McastSync(p, ports[0], 31, msg)
		}
	})
	c.Eng.Run()
	c.Eng.Kill()
	if delivered != 63*2 {
		t.Fatalf("delivered %d/126 across the Clos", delivered)
	}
}

func TestMulticastAcrossFatTree(t *testing.T) {
	// 200 nodes need the three-level fat tree; cross-pod forwarding hops
	// through six links.
	cfg := cluster.DefaultConfig(200)
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	tr := cfg.OptimalTree(0, c.Members(), 64)
	c.InstallGroup(32, tr, testPort, testPort)
	delivered := 0
	for n := 1; n < 200; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(128)
			ports[n].Recv(p)
			delivered++
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], 32, pattern(64))
	})
	c.Eng.Run()
	c.Eng.Kill()
	if delivered != 199 {
		t.Fatalf("delivered %d/199 across the fat tree", delivered)
	}
}

// A forwarder makes no copy of the packet for its children: it "changes the
// packet header and queues it for transmission again", and the header fields
// that change — where the packet comes from and goes to — are the wire
// packet's, not the frame's. So the frame the root made is the one pointer on
// every edge of the tree, here root → forwarder → four leaves.
func TestAllocForwarderInjectsTheFrameItReceived(t *testing.T) {
	const forwarder = 1
	r := newRig(t, 6, func(root fabric.NodeID, members []fabric.NodeID) *tree.Tree {
		parents := map[fabric.NodeID]fabric.NodeID{forwarder: root}
		for _, m := range members {
			if m != root && m != forwarder {
				parents[m] = forwarder
			}
		}
		return tree.FromParents(root, parents)
	}, nil)
	if kids := r.tr.Children(forwarder); len(kids) != 4 {
		t.Fatalf("the forwarder has children %v, want four", kids)
	}
	onEdge := make(map[[2]fabric.NodeID]*gm.Frame)
	r.c.Net.DropFn = func(p *fabric.Packet, _ *fabric.Link) bool {
		if fr, ok := p.Payload.(*gm.Frame); ok && fr.Kind == gm.KindMcastData {
			onEdge[[2]fabric.NodeID{p.Src, p.Dst}] = fr
		}
		return false
	}
	msg := pattern(1024)
	got := r.spawnReceivers(1, len(msg))
	r.c.Eng.Spawn("root", func(p *sim.Proc) {
		r.c.Nodes[0].Ext.McastSync(p, r.ports[0], r.gid, msg)
	})
	r.run(t)
	fromRoot := onEdge[[2]fabric.NodeID{0, forwarder}]
	if fromRoot == nil || len(onEdge) != 5 {
		t.Fatalf("saw multicast data on edges %v, want the root's and the forwarder's four", onEdge)
	}
	for _, child := range r.tr.Children(forwarder) {
		if fr := onEdge[[2]fabric.NodeID{forwarder, child}]; fr != fromRoot {
			t.Errorf("the forwarder sent %v frame %p, not the %p it received", child, fr, fromRoot)
		}
		if d := (*got)[child]; len(d) != 1 || !bytes.Equal(d[0], msg) {
			t.Errorf("%v did not receive the message intact", child)
		}
	}
}
