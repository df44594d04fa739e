package core_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// The complete NIC-based multicast workflow: build a cluster, prepost a
// spanning tree into the NIC group tables, have destinations provide
// receive tokens, and multicast from the root with one host request.
func Example() {
	cfg := cluster.DefaultConfig(4)
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(1)

	// The host constructs the tree (here binomial) and preposts it.
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(7, tr, 1, 1)

	for n := 1; n < 4; n++ {
		n := n
		c.Eng.Spawn("member", func(p *sim.Proc) {
			ports[n].Provide(64) // receive token, as for any GM message
			ev := ports[n].Recv(p)
			fmt.Printf("node %d received %q\n", n, ev.Data)
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], gm.GroupID(7), []byte("hello"))
	})
	c.Eng.Run()
	c.Eng.Kill()
	// Binomial send order is farthest-subtree-first, so node 2 hears before
	// node 1, and node 3 receives via node 2's NIC-based forward.
	//
	// Output:
	// node 2 received "hello"
	// node 1 received "hello"
	// node 3 received "hello"
}
