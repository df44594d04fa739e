// Quickstart: build a simulated 8-node Myrinet/GM-2 cluster, prepost a
// multicast group, and broadcast one message with the NIC-based multicast —
// then do the same with host-based forwarding and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

const (
	nodes = 8
	port  = gm.PortID(1)
	group = gm.GroupID(42)
)

func main() {
	fmt.Println("NIC-based multicast over simulated Myrinet/GM-2")
	fmt.Printf("cluster: %d nodes, one 16-port crossbar, LANai-9.1-class NICs\n\n", nodes)

	message := []byte("hello from the root NIC — forwarded without host involvement")

	nb := nicBased(message)
	hb := hostBased(message)

	fmt.Printf("\nlast delivery: NIC-based %.2fµs, host-based %.2fµs  (improvement %.2fx)\n",
		nb.Micros(), hb.Micros(), float64(hb)/float64(nb))
}

// nicBased broadcasts via the NIC-based multicast over the optimal tree.
func nicBased(message []byte) sim.Time {
	c := cluster.New(nodes)
	ports := c.OpenPorts(port)

	// The host builds the size-specific optimal spanning tree and preposts
	// it into every NIC's group table.
	tr := c.Cfg.OptimalTree(0, c.Members(), len(message))
	c.InstallGroup(group, tr, port, port)
	fmt.Printf("optimal tree (depth %d, max fanout %d):\n%s\n", tr.Depth(), tr.MaxFanout(), tr)

	var last sim.Time
	for n := 1; n < nodes; n++ {
		n := n
		c.Eng.Spawn("receiver", func(p *sim.Proc) {
			ports[n].Provide(len(message)) // receive token
			ev := ports[n].Recv(p)
			fmt.Printf("  node %d received %q at t=%v\n", n, ev.Data, p.Now())
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		// One multisend request: the NIC replicates and the tree forwards.
		c.Nodes[0].Ext.McastSync(p, ports[0], group, message)
		fmt.Printf("  root: all children acknowledged at t=%v\n", p.Now())
	})
	c.Run()
	c.Eng.Kill()
	return last
}

// hostBased broadcasts the traditional way: unicasts along a binomial
// tree, with every intermediate host receiving and re-sending.
func hostBased(message []byte) sim.Time {
	c := cluster.New(nodes)
	ports := c.OpenPorts(port)
	tr := tree.Binomial(0, c.Members())

	var last sim.Time
	forward := func(p *sim.Proc, n fabric.NodeID, data []byte) {
		for _, child := range tr.Children(n) {
			ports[n].Send(p, child, port, data)
		}
	}
	for n := 1; n < nodes; n++ {
		n := fabric.NodeID(n)
		c.Eng.Spawn("node", func(p *sim.Proc) {
			ports[n].Provide(len(message))
			ev := ports[n].Recv(p)
			// Host-based forwarding: the sends read ev.Data until they
			// complete, and this port never receives again to take it back.
			forward(p, n, ev.Data)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		forward(p, 0, message)
	})
	c.Run()
	c.Eng.Kill()
	return last
}
