// NIC collectives: the paper's future work proposes expanding NIC-based
// support beyond multicast ("for example, Allreduce and Alltoall
// broadcast"), following the authors' companion NIC-barrier and
// NIC-reduction studies. This example runs the NIC-level barrier and the
// NIC-based reduction/allreduce, comparing each against its host-level
// counterpart on the same simulated cluster.
//
//	go run ./examples/niccollectives
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

const (
	nodes             = 16
	rounds            = 40
	port    gm.PortID = 1
	groupID           = gm.GroupID(3)
)

func main() {
	fmt.Printf("NIC-level collectives on %d nodes, %d iterations each\n\n", nodes, rounds)

	nicBar := nicBarrier()
	hostBar := hostBarrier()
	fmt.Printf("barrier:   NIC %7.2fµs   host dissemination %7.2fµs   (%.2fx)\n",
		nicBar, hostBar, hostBar/nicBar)

	nicRed, sum := nicAllreduce()
	fmt.Printf("allreduce: NIC %7.2fµs   (sum of ranks = %d, combined by the LANai processors)\n",
		nicRed, sum)
}

func nicBarrier() float64 {
	c := cluster.New(nodes)
	ports := c.OpenPorts(port)
	c.InstallCollGroup(groupID, c.Members(), port)
	var total sim.Time
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				c.Nodes[i].Coll.Barrier(p, ports[i], groupID)
			}
			if i == 0 {
				total = p.Now()
			}
		})
	}
	c.Run()
	c.Eng.Kill()
	return total.Micros() / rounds
}

func hostBarrier() float64 {
	c := cluster.New(nodes)
	ports := c.OpenPorts(port)
	var total sim.Time
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			steps := 0
			for k := 1; k < nodes; k <<= 1 {
				steps++
			}
			ports[i].ProvideN(rounds*steps, 16)
			for r := 0; r < rounds; r++ {
				for k := 1; k < nodes; k <<= 1 {
					ports[i].Send(p, fabric.NodeID((i+k)%nodes), port, []byte{1})
					ports[i].Recv(p)
				}
			}
			if i == 0 {
				total = p.Now()
			}
		})
	}
	c.Run()
	c.Eng.Kill()
	return total.Micros() / rounds
}

func nicAllreduce() (float64, int64) {
	c := cluster.New(nodes)
	ports := c.OpenPorts(port)
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(groupID, tr, port, port)
	c.Run() // settle the group table

	var total sim.Time
	var sum int64
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			if i != 0 {
				ports[i].ProvideN(rounds, 64)
			}
			var res []int64
			for r := 0; r < rounds; r++ {
				res = c.Nodes[i].Coll.Allreduce(p, ports[i], groupID, []int64{int64(i)}, coll.OpSum)
			}
			if i == 0 {
				total = p.Now()
				sum = res[0]
			}
		})
	}
	c.Run()
	c.Eng.Kill()
	return total.Micros() / rounds, sum
}
