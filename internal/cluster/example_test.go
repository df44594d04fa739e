package cluster_test

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Build an 8-node Myrinet/GM-2 cluster, prepost a multicast group and
// broadcast one message with the NIC-based multicast, then do the same
// with host-based forwarding and compare.
func Example_quickstart() {
	const nodes, port, group = 8, gm.PortID(1), gm.GroupID(42)
	message := []byte("hello from the root NIC — forwarded without host involvement")

	// NIC-based: the host builds the size-specific optimal spanning tree
	// and preposts it into every NIC's group table; one multisend request
	// then goes out, the NIC replicates and the tree forwards.
	c := cluster.New(nodes)
	ports := c.OpenPorts(port)
	tr := c.Cfg.OptimalTree(0, c.Members(), len(message))
	c.InstallGroup(group, tr, port, port)
	fmt.Printf("optimal tree (depth %d, max fanout %d):\n%s\n", tr.Depth(), tr.MaxFanout(), tr)
	var nb sim.Time
	for n := 1; n < nodes; n++ {
		c.Eng.Spawn("receiver", func(p *sim.Proc) {
			ports[n].Provide(len(message)) // receive token
			ev := ports[n].Recv(p)
			fmt.Printf("node %d received %q at t=%v\n", n, ev.Data, p.Now())
			nb = max(nb, p.Now())
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], group, message)
		fmt.Printf("root: all children acknowledged at t=%v\n", p.Now())
	})
	c.Run()
	c.Eng.Kill()

	// Host-based: unicasts along a binomial tree, every intermediate host
	// receiving and re-sending.
	c = cluster.New(nodes)
	ports = c.OpenPorts(port)
	tr = tree.Binomial(0, c.Members())
	forward := func(p *sim.Proc, n fabric.NodeID, data []byte) {
		for _, child := range tr.Children(n) {
			ports[n].Send(p, child, port, data)
		}
	}
	var hb sim.Time
	for n := fabric.NodeID(1); n < nodes; n++ {
		c.Eng.Spawn("node", func(p *sim.Proc) {
			ports[n].Provide(len(message))
			// The sends read ev.Data until they complete, and this port
			// never receives again to take it back.
			forward(p, n, ports[n].Recv(p).Data)
			hb = max(hb, p.Now())
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) { forward(p, 0, message) })
	c.Run()
	c.Eng.Kill()

	fmt.Printf("last delivery: NIC-based %.2fµs, host-based %.2fµs (improvement %.2fx)\n",
		nb.Micros(), hb.Micros(), float64(hb)/float64(nb))
	// Output:
	// optimal tree (depth 1, max fanout 7):
	// n0
	//   n1
	//   n2
	//   n3
	//   n4
	//   n5
	//   n6
	//   n7
	//
	// node 1 received "hello from the root NIC — forwarded without host involvement" at t=11.416µs
	// node 2 received "hello from the root NIC — forwarded without host involvement" at t=12.310µs
	// node 3 received "hello from the root NIC — forwarded without host involvement" at t=13.204µs
	// node 4 received "hello from the root NIC — forwarded without host involvement" at t=14.098µs
	// node 5 received "hello from the root NIC — forwarded without host involvement" at t=14.992µs
	// node 6 received "hello from the root NIC — forwarded without host involvement" at t=16.674µs
	// node 7 received "hello from the root NIC — forwarded without host involvement" at t=19.024µs
	// root: all children acknowledged at t=19.102µs
	// last delivery: NIC-based 19.02µs, host-based 39.48µs (improvement 2.08x)
}

// The NIC-based multicast is reliable end to end: stream 25 multicasts of
// mixed sizes through a 12-node tree at 3% per-link loss, verify every
// byte at every member, and read how much work the per-child
// retransmission machinery did from the cluster's metrics registry.
func Example_lossyNetwork() {
	const nodes, port, group, messages = 12, gm.PortID(1), gm.GroupID(7), 25
	c := cluster.New(nodes, cluster.WithLossRate(0.03), cluster.WithSeed(2026))
	ports := c.OpenPorts(port)
	c.InstallGroup(group, tree.Binomial(0, c.Members()), port, port)

	var sent [][]byte
	for i := range messages {
		msg := make([]byte, 200+i*613) // single- and multi-packet sizes
		for j := range msg {
			msg[j] = byte(i*31 + j)
		}
		sent = append(sent, msg)
	}
	intact := 0
	for n := 1; n < nodes; n++ {
		c.Eng.Spawn("member", func(p *sim.Proc) {
			ports[n].ProvideN(messages, 1<<15)
			for _, msg := range sent {
				if bytes.Equal(ports[n].Recv(p).Data, msg) {
					intact++
				}
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for _, msg := range sent {
			c.Nodes[0].Ext.Mcast(p, ports[0], group, msg)
		}
		for range sent {
			ports[0].WaitSendDone(p)
		}
	})
	c.Run()
	c.Eng.Kill()

	// The multicast extension and the collective engine each count their
	// own recovery.
	snap := c.Nodes[0].HW.Registry().Snapshot()
	net := func(name string) uint64 { return snap.Counter(fabric.Component, metrics.NodeFabric, name) }
	both := func(name string) uint64 {
		return snap.CounterSum(core.Component, name) + snap.CounterSum(coll.Component, name)
	}
	fmt.Printf("fabric: %d packets injected, %d delivered, %d lost\n", net("injected"), net("delivered"), net("dropped"))
	fmt.Printf("recovery: %d per-child retransmissions, %d duplicates suppressed\n", both("retransmits"), both("duplicates"))
	fmt.Printf("%d/%d messages delivered intact, in order\n", intact, messages*(nodes-1))
	// Output:
	// fabric: 1696 packets injected, 1604 delivered, 92 lost
	// recovery: 380 per-child retransmissions, 18 duplicates suppressed
	// 275/275 messages delivered intact, in order
}
