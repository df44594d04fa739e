package core_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tree"
)

// ablationRun multicasts a message under the given core configuration and
// returns the completion time plus per-node delivered payloads.
func ablationRun(t *testing.T, mut func(*core.Config), size, nodes int) (sim.Time, int) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	mut(&cfg.Mcast)
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(11, tr, testPort, testPort)
	msg := pattern(size)
	okCount := 0
	// done is the time the last host received the message: root-side
	// completion only covers the root's own children (reliability is
	// hop-by-hop), so downstream ablations are visible only here.
	var done sim.Time
	for n := 1; n < nodes; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(1 << 16)
			ev := ports[n].Recv(p)
			if bytes.Equal(ev.Data, msg) {
				okCount++
			}
			if p.Now() > done {
				done = p.Now()
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], 11, msg)
	})
	c.Eng.Run()
	c.Eng.Kill()
	return done, okCount
}

func TestAblationModeTokensCorrectAndSlower(t *testing.T) {
	base, okBase := ablationRun(t, func(c *core.Config) {}, 256, 8)
	tok, okTok := ablationRun(t, func(c *core.Config) { c.Multisend = core.ModeTokens }, 256, 8)
	if okBase != 7 || okTok != 7 {
		t.Fatalf("deliveries base=%d tokens=%d, want 7/7", okBase, okTok)
	}
	// Per-token processing repeats the send-event cost per destination;
	// the callback scheme must finish sooner for small messages.
	if tok <= base {
		t.Fatalf("token-mode multisend (%v) not slower than callback mode (%v)", tok, base)
	}
}

func TestAblationStoreAndForwardCorrectAndSlower(t *testing.T) {
	size := 16384 // four packets: pipelining matters
	base, okBase := ablationRun(t, func(c *core.Config) {}, size, 8)
	sf, okSF := ablationRun(t, func(c *core.Config) { c.Forward = core.ForwardStoreAndForward }, size, 8)
	if okBase != 7 || okSF != 7 {
		t.Fatalf("deliveries base=%d sf=%d, want 7/7", okBase, okSF)
	}
	if sf <= base {
		t.Fatalf("store-and-forward (%v) not slower than per-packet pipelining (%v)", sf, base)
	}
}

func TestAblationStoreAndForwardSinglePacketEquivalent(t *testing.T) {
	// With a single-packet message there is nothing to pipeline; both
	// forwarding modes should deliver (times may differ slightly because
	// store-and-forward re-reads host memory).
	_, ok := ablationRun(t, func(c *core.Config) { c.Forward = core.ForwardStoreAndForward }, 512, 8)
	if ok != 7 {
		t.Fatalf("single-packet store-and-forward delivered %d, want 7", ok)
	}
}

func TestAblationHoldBufferCorrect(t *testing.T) {
	_, ok := ablationRun(t, func(c *core.Config) { c.Retransmit = core.RetransmitHoldBuffer }, 8192, 8)
	if ok != 7 {
		t.Fatalf("hold-buffer mode delivered %d, want 7", ok)
	}
}

func TestAblationHoldBufferThrottlesStreaming(t *testing.T) {
	// A long stream through a chain with few receive buffers: pinning each
	// buffer until children ack throttles the receiver — "holding on to
	// one or more receive buffers will slow down the receiver".
	run := func(mode core.RetransmitSource) sim.Time {
		cfg := cluster.DefaultConfig(4)
		cfg.NIC.RecvBuffers = 2
		cfg.Mcast.Retransmit = mode
		c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
		ports := c.OpenPorts(testPort)
		tr := tree.Chain(0, c.Members())
		c.InstallGroup(12, tr, testPort, testPort)
		const count = 6
		msg := pattern(12288)
		for n := 1; n < 4; n++ {
			n := n
			c.Eng.Spawn("recv", func(p *sim.Proc) {
				ports[n].ProvideN(count, 1<<14)
				for i := 0; i < count; i++ {
					ports[n].Recv(p)
				}
			})
		}
		var done sim.Time
		c.Eng.Spawn("root", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				c.Nodes[0].Ext.Mcast(p, ports[0], 12, msg)
			}
			for i := 0; i < count; i++ {
				ports[0].WaitSendDone(p)
			}
			done = p.Now()
		})
		c.Eng.Run()
		c.Eng.Kill()
		if live := c.Eng.LiveProcs(); live != 0 {
			t.Fatalf("mode %v stalled with %d live procs", mode, live)
		}
		return done
	}
	fast := run(core.RetransmitFromHost)
	slow := run(core.RetransmitHoldBuffer)
	if slow <= fast {
		t.Fatalf("hold-buffer streaming (%v) not slower than host-replica retransmit (%v)", slow, fast)
	}
}

func TestAblationModeTokensUnderLoss(t *testing.T) {
	cfg := cluster.DefaultConfig(6)
	cfg.Mcast.Multisend = core.ModeTokens
	cfg.LossRate = 0.04
	cfg.Seed = 11
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	tr := tree.Flat(0, c.Members())
	c.InstallGroup(13, tr, testPort, testPort)
	msg := pattern(5000)
	ok := 0
	for n := 1; n < 6; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(1 << 14)
			if bytes.Equal(ports[n].Recv(p).Data, msg) {
				ok++
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], 13, msg)
	})
	c.Eng.Run()
	c.Eng.Kill()
	if ok != 5 {
		t.Fatalf("token mode under loss delivered %d, want 5", ok)
	}
}

// The hold-buffer and store-and-forward ablations hand a packet's NIC buffer
// on — to a send record that pins it until every child has acknowledged, or
// to a second, host-side descriptor — and no benchmark workload runs them.
// A lossy stream through each (drops, duplicates and go-back rounds
// included) must end with every receive buffer back, every send record
// retired and every descriptor ever made on its free list.
func TestAblationLossyRunLeaksNothing(t *testing.T) {
	muts := map[string]func(*core.Config){
		"per-packet":        func(*core.Config) {},
		"hold-buffer":       func(c *core.Config) { c.Retransmit = core.RetransmitHoldBuffer },
		"store-and-forward": func(c *core.Config) { c.Forward = core.ForwardStoreAndForward },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			const nodes, count = 8, 12
			cfg := cluster.DefaultConfig(nodes)
			mut(&cfg.Mcast)
			cfg.LossRate = 0.03
			cfg.Seed = 5
			c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
			ports := c.OpenPorts(testPort)
			c.InstallGroup(14, tree.Binomial(0, c.Members()), testPort, testPort)
			msg := pattern(3*4096 + 100) // four packets
			ok := 0
			for n := 1; n < nodes; n++ {
				n := n
				c.Eng.Spawn("recv", func(p *sim.Proc) {
					ports[n].ProvideN(count, 1<<14)
					for i := 0; i < count; i++ {
						ev := ports[n].Recv(p)
						if bytes.Equal(ev.Data, msg) {
							ok++
						}
					}
				})
			}
			c.Eng.Spawn("root", func(p *sim.Proc) {
				for i := 0; i < count; i++ {
					c.Nodes[0].Ext.McastSync(p, ports[0], 14, msg)
				}
			})
			c.Eng.Run()
			c.Eng.Kill()
			if ok != count*(nodes-1) {
				t.Fatalf("delivered %d intact messages, want %d", ok, count*(nodes-1))
			}
			retrans, made := uint64(0), 0
			for _, n := range c.Nodes {
				retrans += counter(t, c, core.Component, int(n.ID), "retransmits") +
					counter(t, c, coll.Component, int(n.ID), "retransmits")
				if free, cap := n.HW.RecvBufs.Free(), n.HW.RecvBufs.Cap(); free != cap {
					t.Errorf("%v: %d of %d receive buffers free after the run", n.ID, free, cap)
				}
				if free, cap := n.HW.SendBufs.Free(), n.HW.SendBufs.Cap(); free != cap {
					t.Errorf("%v: %d of %d send buffers free after the run", n.ID, free, cap)
				}
				if out := n.Ext.OutstandingRecords(); out != 0 {
					t.Errorf("%v: %d send records outstanding after the run", n.ID, out)
				}
				free, all := n.Ext.Descriptors()
				if free != all {
					t.Errorf("%v: %d of %d descriptors on the free list after the run", n.ID, free, all)
				}
				made += all
			}
			if retrans == 0 {
				t.Error("no retransmission: the run exercised no recovery path")
			}
			if made == 0 {
				t.Error("no descriptor was ever made")
			}
		})
	}
}
