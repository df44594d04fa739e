package harness

import (
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

const benchPort gm.PortID = 1

// gmGroup is the GroupID the GM-level experiments install.
const gmGroup gm.GroupID = 1

// MultisendNB measures the NIC-based multisend: one multisend request per
// iteration to ndest destinations, waiting for the acknowledgment from the
// last destination (the send token returning means every destination's NIC
// acknowledged). Returns the averaged latency in microseconds — Figure 3's
// NB curves.
func (o Options) MultisendNB(ndest, size int) float64 {
	c := o.build(ndest + 1)
	ports := c.OpenPorts(benchPort)
	tr := tree.Flat(0, c.Members())
	c.InstallGroup(gmGroup, tr, benchPort, benchPort)
	total := o.Warmup + o.Iters
	for d := 1; d <= ndest; d++ {
		d := d
		c.SpawnOn(fabric.NodeID(d), "dest", func(p *sim.Proc) {
			ports[d].ProvideN(total, size)
			for i := 0; i < total; i++ {
				ports[d].Recv(p)
			}
		})
	}
	var avg float64
	msg := payload(size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		avg = o.timed(p, func() { c.Nodes[0].Ext.McastSync(p, ports[0], gmGroup, msg) })
	})
	runToCompletion(c)
	return avg
}

// MultisendHB measures the traditional host-based multiple unicasts that
// Figure 3 compares against: ndest send requests posted per iteration,
// waiting for all acknowledgments.
func (o Options) MultisendHB(ndest, size int) float64 {
	c := o.build(ndest + 1)
	ports := c.OpenPorts(benchPort)
	total := o.Warmup + o.Iters
	for d := 1; d <= ndest; d++ {
		d := d
		c.SpawnOn(fabric.NodeID(d), "dest", func(p *sim.Proc) {
			ports[d].ProvideN(total, size)
			for i := 0; i < total; i++ {
				ports[d].Recv(p)
			}
		})
	}
	var avg float64
	msg := payload(size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		avg = o.timed(p, func() {
			for d := 1; d <= ndest; d++ {
				ports[0].Send(p, fabric.NodeID(d), benchPort, msg)
			}
			for d := 1; d <= ndest; d++ {
				ports[0].WaitSendDone(p)
			}
		})
	})
	runToCompletion(c)
	return avg
}

// multicastNBOnce measures the NIC-based multicast over the size-specific
// optimal tree with one designated leaf returning an application-level
// 1-byte acknowledgment, the paper's Figure 5 protocol.
func (o Options) multicastNBOnce(nodes, size int, designated fabric.NodeID) float64 {
	c := o.build(nodes)
	ports := c.OpenPorts(benchPort)
	tr := o.nbTree(c.Cfg, 0, c.Members(), size)
	c.InstallGroup(gmGroup, tr, benchPort, benchPort)
	total := o.Warmup + o.Iters
	for _, n := range tr.Nodes() {
		if n == 0 {
			continue
		}
		n := n
		c.SpawnOn(n, "dest", func(p *sim.Proc) {
			ports[n].ProvideN(total, size)
			for i := 0; i < total; i++ {
				ports[n].Recv(p)
				if n == designated {
					ports[n].Send(p, 0, benchPort, ack1)
				}
			}
		})
	}
	var avg float64
	msg := payload(size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		ports[0].ProvideN(total, 4)
		avg = o.timed(p, func() {
			ext.Mcast(p, ports[0], gmGroup, msg)
			ports[0].Recv(p) // designated leaf's acknowledgment
		})
	})
	runToCompletion(c)
	return avg
}

// multicastHBOnce measures the traditional host-based multicast: unicasts
// forwarded by the host process at every node of a binomial tree.
func (o Options) multicastHBOnce(nodes, size int, designated fabric.NodeID) float64 {
	c := o.build(nodes)
	ports := c.OpenPorts(benchPort)
	tr := tree.Binomial(0, c.Members())
	total := o.Warmup + o.Iters
	msg := payload(size)
	for _, n := range tr.Nodes() {
		if n == 0 {
			continue
		}
		n := n
		children := tr.Children(n)
		c.SpawnOn(n, "node", func(p *sim.Proc) {
			ports[n].ProvideN(total, size)
			// A forwarder's sends read ev.Data until they are acknowledged,
			// and it does not wait for them: it keeps what it has forwarded
			// and releases the lot once every send token is back, when
			// nothing it posted can still be reading.
			var held []*gm.RecvEvent
			for i := 0; i < total; i++ {
				ev := ports[n].Recv(p)
				if len(held) > 0 && ports[n].FreeSendTokens() == c.Cfg.GM.SendTokens {
					for _, h := range held {
						ports[n].Release(h)
					}
					held = held[:0]
				}
				for _, ch := range children {
					ports[n].Send(p, ch, benchPort, ev.Data)
				}
				if len(children) == 0 {
					// What a leaf holds has crossed every forwarder above
					// it; one that let go of its buffer early shows here.
					checkLeaf(n, ev.Data, msg)
				} else {
					ports[n].Keep(ev)
					held = append(held, ev)
				}
				if n == designated {
					ports[n].Send(p, 0, benchPort, ack1)
				}
			}
		})
	}
	var avg float64
	children := tr.Children(0)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ports[0].ProvideN(total, 4)
		avg = o.timed(p, func() {
			for _, ch := range children {
				ports[0].Send(p, ch, benchPort, msg)
			}
			ports[0].Recv(p)
		})
	})
	runToCompletion(c)
	return avg
}

// MulticastNB is the NIC-based multicast's latency, the worst over the
// optimal tree's leaves as designated receiver — Figure 5's NB curves.
func (o Options) MulticastNB(nodes, size int) float64 {
	tr := o.nbTree(o.config(nodes), 0, membersOf(nodes), size)
	return worst(tr.Leaves(), func(leaf fabric.NodeID) float64 { return o.multicastNBOnce(nodes, size, leaf) })
}

// MulticastHB is the host-based counterpart over the binomial tree.
func (o Options) MulticastHB(nodes, size int) float64 {
	tr := tree.Binomial(0, membersOf(nodes))
	return worst(tr.Leaves(), func(leaf fabric.NodeID) float64 { return o.multicastHBOnce(nodes, size, leaf) })
}

// UnicastOneWay measures the plain GM one-way latency, used for the
// no-regression check of Section 6.1 and for calibration reporting.
func (o Options) UnicastOneWay(size int, withExtension bool) float64 {
	opts := []cluster.Option{cluster.WithConfig(o.config(2))}
	if !withExtension {
		opts = append(opts, cluster.WithoutExtension())
	}
	c := cluster.New(2, opts...)
	ports := c.OpenPorts(benchPort)
	total := o.Warmup + o.Iters
	var avg float64
	c.SpawnOn(1, "echo", func(p *sim.Proc) {
		ports[1].ProvideN(total, size)
		for i := 0; i < total; i++ {
			ports[1].Recv(p)
			ports[1].Send(p, 0, benchPort, ack1)
		}
	})
	msg := payload(size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ports[0].ProvideN(total, 4)
		avg = o.timed(p, func() {
			ports[0].Send(p, 1, benchPort, msg)
			ports[0].Recv(p)
		}) / 2 // half round trip
	})
	runToCompletion(c)
	return avg
}

var ack1 = []byte{0xA5}

func payload(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func membersOf(n int) []fabric.NodeID {
	out := make([]fabric.NodeID, n)
	for i := range out {
		out[i] = fabric.NodeID(i)
	}
	return out
}

// NICBarrier measures the average latency of the NIC-level barrier — the
// future-work collective — over the given node count.
func (o Options) NICBarrier(nodes int) float64 {
	c := o.build(nodes)
	ports := c.OpenPorts(benchPort)
	c.InstallCollGroup(gmGroup, c.Members(), benchPort)
	total := o.Warmup + o.Iters
	var avg float64
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(fabric.NodeID(i), "p", func(p *sim.Proc) {
			for r := 0; r < total; r++ {
				c.Nodes[i].Coll.Barrier(p, ports[i], gmGroup)
			}
			if i == 0 {
				avg = p.Now().Micros() / float64(total)
			}
		})
	}
	runToCompletion(c)
	return avg
}

// HostBarrier measures a host-level dissemination barrier over GM
// unicasts, the baseline for the NIC-level barrier.
func (o Options) HostBarrier(nodes int) float64 {
	c := o.build(nodes)
	ports := c.OpenPorts(benchPort)
	total := o.Warmup + o.Iters
	rounds := 0
	for k := 1; k < nodes; k <<= 1 {
		rounds++
	}
	var avg float64
	for i := 0; i < nodes; i++ {
		i := i
		c.SpawnOn(fabric.NodeID(i), "p", func(p *sim.Proc) {
			ports[i].ProvideN(total*rounds, 16)
			for r := 0; r < total; r++ {
				for k := 1; k < nodes; k <<= 1 {
					dst := fabric.NodeID((i + k) % nodes)
					ports[i].Send(p, dst, benchPort, ack1)
					ports[i].Recv(p)
				}
			}
			if i == 0 {
				avg = p.Now().Micros() / float64(total)
			}
		})
	}
	runToCompletion(c)
	return avg
}

// LossRecovery measures multicast latency on a lossy fabric under the
// three recovery configurations: fixed timeout (the paper's), NACK fast
// recovery, and adaptive RTT-estimated timeouts (both extensions).
func (o Options) LossRecovery(nodes, size int, lossRate float64, mode string) float64 {
	o2 := o
	o2.Mut = func(c *cluster.Config) {
		if o.Mut != nil {
			o.Mut(c)
		}
		c.LossRate = lossRate
		switch mode {
		case "fixed":
		case "nack":
			c.GM.EnableNacks = true
		case "adaptive":
			c.GM.AdaptiveRTO = true
		case "nack+adaptive":
			c.GM.EnableNacks = true
			c.GM.AdaptiveRTO = true
		default:
			panic("harness: unknown recovery mode " + mode)
		}
	}
	return o2.MulticastNB(nodes, size)
}

// UnicastBandwidth measures streaming goodput (MB/s) for back-to-back
// messages of one size over a single connection — the classic GM
// bandwidth microbenchmark.
func (o Options) UnicastBandwidth(size int) float64 {
	c := o.build(2)
	ports := c.OpenPorts(benchPort)
	total := o.Warmup + o.Iters
	var mbps float64
	c.SpawnOn(1, "recv", func(p *sim.Proc) {
		ports[1].ProvideN(total, size)
		for i := 0; i < total; i++ {
			ports[1].Recv(p)
		}
	})
	msg := payload(size)
	c.SpawnOn(0, "send", func(p *sim.Proc) {
		for i := 0; i < o.Warmup; i++ {
			ports[0].SendSync(p, 1, benchPort, msg)
		}
		t0 := p.Now()
		for i := 0; i < o.Iters; i++ {
			ports[0].Send(p, 1, benchPort, msg)
		}
		for i := 0; i < o.Iters; i++ {
			ports[0].WaitSendDone(p)
		}
		elapsed := p.Now() - t0
		mbps = float64(size*o.Iters) / elapsed.Micros()
	})
	runToCompletion(c)
	return mbps
}

// MulticastAggregateBandwidth measures the total bytes-delivered rate of
// a NIC-based multicast stream: payload bytes times receivers, divided by
// the streaming time — the fabric-level win of forwarding at the NICs.
func (o Options) MulticastAggregateBandwidth(nodes, size int) float64 {
	c := o.build(nodes)
	ports := c.OpenPorts(benchPort)
	tr := o.nbTree(c.Cfg, 0, c.Members(), size)
	c.InstallGroup(gmGroup, tr, benchPort, benchPort)
	total := o.Warmup + o.Iters
	// Per-node finish times: receivers run on different engines when the
	// cluster is sharded, so a shared max would be a data race. The max is
	// folded after the run barrier instead.
	finished := make([]sim.Time, nodes)
	for _, n := range tr.Nodes() {
		if n == 0 {
			continue
		}
		n := n
		c.SpawnOn(n, "recv", func(p *sim.Proc) {
			ports[n].ProvideN(total, size)
			for i := 0; i < total; i++ {
				ports[n].Recv(p)
			}
			finished[n] = p.Now()
		})
	}
	var t0 sim.Time
	msg := payload(size)
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for i := 0; i < o.Warmup; i++ {
			ext.McastSync(p, ports[0], gmGroup, msg)
		}
		t0 = p.Now()
		for i := 0; i < o.Iters; i++ {
			ext.Mcast(p, ports[0], gmGroup, msg)
		}
		for i := 0; i < o.Iters; i++ {
			ports[0].WaitSendDone(p)
		}
	})
	runToCompletion(c)
	var last sim.Time
	for _, t := range finished {
		if t > last {
			last = t
		}
	}
	return float64(size*o.Iters*(nodes-1)) / (last - t0).Micros()
}
