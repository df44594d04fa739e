package harness

import (
	"repro/internal/sim"
	"repro/internal/tree"
)

// Scalability experiment — the paper's future work ("we intend to study
// its scalability in large scale systems"). Beyond 16 nodes the fabric
// becomes a Clos of 16-port crossbars, and the metric is the average time
// until the last host has the complete message.

// ScalePoint is one system size's comparison.
type ScalePoint struct {
	Nodes int
	HB    float64 // µs, host-based multicast
	NB    float64 // µs, NIC-based multicast
}

// Factor reports HB/NB.
func (p ScalePoint) Factor() float64 {
	if p.NB == 0 {
		return 0
	}
	return p.HB / p.NB
}

// lastDelivery measures the average latency until the last destination's
// host holds the message, from recorded delivery timestamps. Only one
// designated node (the highest network ID) acknowledges each broadcast —
// acknowledgment implosion at the root NIC would contend with the
// replicas still being transmitted and distort the very thing being
// measured, which is why the paper's methodology uses a single leaf ack.
func (o Options) lastDelivery(nodes, size int, nb bool) float64 {
	c := o.build(nodes)
	ports := c.OpenPorts(benchPort)
	var tr *tree.Tree
	if nb {
		tr = o.nbTree(c.Cfg, 0, c.Members(), size)
		c.InstallGroup(gmGroup, tr, benchPort, benchPort)
	} else {
		tr = tree.Binomial(0, c.Members())
	}
	total := o.Warmup + o.Iters
	starts := make([]sim.Time, total)
	nodesList := tr.Nodes()
	designated := nodesList[len(nodesList)-1]

	// Per-node arrival rows: destinations run on different engines when the
	// cluster is sharded, so the per-iteration max is folded after the run
	// barrier rather than updated from concurrent processes.
	arrivals := make([][]sim.Time, nodes)
	for _, n := range tr.Nodes() {
		if n == 0 {
			continue
		}
		n := n
		children := tr.Children(n)
		row := make([]sim.Time, total)
		arrivals[n] = row
		c.SpawnOn(n, "dest", func(p *sim.Proc) {
			ports[n].ProvideN(total, size)
			for i := 0; i < total; i++ {
				ev := ports[n].Recv(p)
				if !nb && len(children) > 0 {
					ports[n].Keep(ev) // its sends read ev.Data until they complete
					for _, ch := range children {
						ports[n].Send(p, ch, benchPort, ev.Data)
					}
				}
				row[i] = p.Now()
				if n == designated {
					ports[n].Send(p, 0, benchPort, ack1)
				}
			}
		})
	}
	msg := payload(size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ports[0].ProvideN(total, 4)
		for i := 0; i < total; i++ {
			starts[i] = p.Now()
			if nb {
				c.Nodes[0].Ext.Mcast(p, ports[0], gmGroup, msg)
			} else {
				for _, ch := range tr.Children(0) {
					ports[0].Send(p, ch, benchPort, msg)
				}
			}
			ports[0].Recv(p) // the designated node's acknowledgment
		}
	})
	runToCompletion(c)

	sum := 0.0
	for i := o.Warmup; i < total; i++ {
		var worst sim.Time
		for _, row := range arrivals {
			if row != nil && row[i] > worst {
				worst = row[i]
			}
		}
		sum += (worst - starts[i]).Micros()
	}
	return sum / float64(o.Iters)
}

// ScaleSweep compares the schemes across system sizes for one message
// size, including Clos-routed systems beyond one crossbar. Points run in
// parallel per Options.Workers.
func (o Options) ScaleSweep(nodeCounts []int, size int) []ScalePoint {
	return parallelMap(o.workerCount(len(nodeCounts)), nodeCounts, func(_, n int) ScalePoint {
		return ScalePoint{
			Nodes: n,
			HB:    o.lastDelivery(n, size, false),
			NB:    o.lastDelivery(n, size, true),
		}
	})
}

// ScaleNodeCounts is the default sweep: one crossbar (8, 16), two-level
// Clos (32-128), and a three-level fat tree (256).
func ScaleNodeCounts() []int { return []int{8, 16, 32, 64, 128, 256} }
