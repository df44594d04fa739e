// Lossy network: the NIC-based multicast is reliable end to end. This
// example injects per-link packet loss, streams multicasts through a
// 12-node tree, verifies every byte at every member, and reports how much
// work the per-child retransmission machinery did.
//
//	go run ./examples/lossynetwork
package main

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

const (
	nodes    = 12
	port     = gm.PortID(1)
	group    = gm.GroupID(7)
	messages = 25
	lossRate = 0.03 // 3% per link — far beyond any real bit-error rate
)

func main() {
	c := cluster.New(nodes, cluster.WithLossRate(lossRate), cluster.WithSeed(2026))
	ports := c.OpenPorts(port)
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(group, tr, port, port)

	fmt.Printf("%d-node binomial multicast tree, %.0f%% packet loss per link\n",
		nodes, lossRate*100)

	var sent [][]byte
	for i := 0; i < messages; i++ {
		msg := make([]byte, 200+i*613) // mixed single- and multi-packet sizes
		for j := range msg {
			msg[j] = byte(i*31 + j)
		}
		sent = append(sent, msg)
	}

	corrupted, delivered := 0, 0
	for n := 1; n < nodes; n++ {
		n := n
		c.Eng.Spawn("member", func(p *sim.Proc) {
			ports[n].ProvideN(messages, 1<<15)
			for i := 0; i < messages; i++ {
				ev := ports[n].Recv(p)
				delivered++
				if !bytes.Equal(ev.Data, sent[i]) {
					corrupted++
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

	// Every layer counts into the cluster's metrics registry; the multicast
	// extension and the collective engine each count their own recovery.
	snap := c.Nodes[0].HW.Registry().Snapshot()
	net := func(name string) uint64 { return snap.Counter(fabric.Component, metrics.NodeFabric, name) }
	both := func(name string) uint64 {
		return snap.CounterSum(core.Component, name) + snap.CounterSum(coll.Component, name)
	}
	retrans, dups := both("retransmits"), both("duplicates")
	fmt.Printf("fabric: %d packets injected, %d delivered, %d lost\n",
		net("injected"), net("delivered"), net("dropped"))
	fmt.Printf("recovery: %d per-child retransmissions, %d duplicates suppressed\n", retrans, dups)
	fmt.Printf("delivered %d/%d messages, %d corrupted\n",
		delivered, messages*(nodes-1), corrupted)
	if corrupted == 0 && delivered == messages*(nodes-1) {
		fmt.Println("every member received every message intact, in order")
	}
}
