// Command mcasttrace runs one NIC-based multicast with protocol tracing
// enabled and prints the packet timeline: every transmit, receive,
// NIC-based forward, retransmission, and host delivery with its virtual
// timestamp. With -loss it also shows the per-child recovery machinery in
// action.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	nodes := flag.Int("nodes", 8, "system size")
	size := flag.Int("size", 4096, "message size in bytes")
	loss := flag.Float64("loss", 0, "per-link packet loss probability")
	seed := flag.Int64("seed", 1, "simulation seed")
	lanes := flag.Bool("lanes", false, "render per-node lanes instead of a flat timeline")
	flag.Parse()

	rec := trace.NewRecorder()
	c := cluster.New(*nodes, cluster.WithTrace(rec), cluster.WithLossRate(*loss), cluster.WithSeed(*seed))
	ports := c.OpenPorts(1)
	tr := c.Cfg.OptimalTree(0, c.Members(), *size)
	c.InstallGroup(5, tr, 1, 1)

	fmt.Printf("NIC-based multicast of %d bytes over %d nodes (tree depth %d, fanout %d)\n\n",
		*size, *nodes, tr.Depth(), tr.MaxFanout())

	for n := 1; n < *nodes; n++ {
		n := n
		c.Eng.Spawn("dest", func(p *sim.Proc) {
			ports[n].Provide(*size)
			ports[n].Recv(p)
		})
	}
	msg := make([]byte, *size)
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], gm.GroupID(5), msg)
	})
	c.Run()
	c.Eng.Kill()

	if *lanes {
		rec.WriteLanes(os.Stdout)
	} else {
		rec.WriteTimeline(os.Stdout)
	}
	fmt.Printf("\n%d events in %v of virtual time\n", rec.Len(), c.Eng.Now())
}
