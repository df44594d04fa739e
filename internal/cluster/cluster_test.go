package cluster

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

func TestNewBuildsFullNodes(t *testing.T) {
	c := New(8)
	if len(c.Nodes) != 8 {
		t.Fatalf("built %d nodes, want 8", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != fabric.NodeID(i) {
			t.Fatalf("node %d has ID %v", i, n.ID)
		}
		if n.HW == nil || n.NIC == nil || n.Ext == nil {
			t.Fatalf("node %d incompletely assembled", i)
		}
	}
}

func TestWithoutExtensionOmitsExtension(t *testing.T) {
	c := New(2, WithoutExtension())
	if c.Nodes[0].Ext != nil {
		t.Fatal("plain cluster has multicast extension")
	}
	if c.Nodes[0].NIC.Extension() != nil {
		t.Fatal("plain NIC has firmware extension installed")
	}
}

func TestTopologySelection(t *testing.T) {
	small := New(16)
	if got := small.Net.HopCount(0, 15); got != 2 {
		t.Errorf("16 nodes: %d hops, want 2 (single crossbar)", got)
	}
	big := New(24)
	if got := big.Net.HopCount(0, 23); got != 4 {
		t.Errorf("24 nodes: %d hops, want 4 (Clos)", got)
	}
}

func TestInstallGroupReportsReadiness(t *testing.T) {
	c := New(4)
	c.OpenPorts(1)
	tr := tree.Binomial(0, c.Members())
	ready := c.InstallGroup(9, tr, 1, 1)
	if ready() {
		t.Fatal("group reported ready before the firmware ran")
	}
	c.Eng.Run()
	if !ready() {
		t.Fatal("group not ready after the engine drained")
	}
	for _, n := range c.Nodes {
		if !n.Ext.HasGroup(9) {
			t.Fatalf("node %v missing group entry", n.ID)
		}
	}
}

func TestHostMemcpyTime(t *testing.T) {
	cfg := DefaultConfig(2)
	if got := cfg.HostMemcpyTime(1000); got != sim.PerByte(cfg.HostMemcpyNsPerByte, 1000) {
		t.Fatalf("memcpy time %v inconsistent", got)
	}
}

func TestPostalRatioShrinksWithSize(t *testing.T) {
	cfg := DefaultConfig(16)
	small := cfg.Postal(4).Ratio()
	large := cfg.Postal(4096).Ratio()
	if small <= large {
		t.Fatalf("postal ratio %0.2f (4B) not above %0.2f (4KB)", small, large)
	}
	if large > 2.0 {
		t.Fatalf("4KB postal ratio %.2f; paper expects near-binomial (~1)", large)
	}
}

func TestOptimalTreeShapes(t *testing.T) {
	cfg := DefaultConfig(16)
	members := New(cfg.Nodes, WithConfig(cfg)).Members()
	smallTree := cfg.OptimalTree(0, members, 4)
	if err := smallTree.Validate(); err != nil {
		t.Fatal(err)
	}
	bigTree := cfg.OptimalTree(0, members, 16384)
	if err := bigTree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Small messages: wide and shallow; multi-packet: low fan-out for
	// pipelining (never the near-flat shape).
	if smallTree.Depth() > 3 {
		t.Errorf("small-message tree depth %d, want shallow", smallTree.Depth())
	}
	if f := bigTree.MaxFanout(); f > 3 {
		t.Errorf("16KB tree fanout %d; pipelining needs low fan-out", f)
	}
	if bigTree.Depth() <= smallTree.Depth() {
		t.Errorf("16KB tree (depth %d) not deeper than 4B tree (depth %d)",
			bigTree.Depth(), smallTree.Depth())
	}
}

// The analytic postal Lambda should track a measured one-hop NIC-to-NIC
// forwarding pivot within a loose band; this guards against the analytic
// model drifting from the simulated data path after recalibration.
func TestPostalLambdaMatchesSimulatedHop(t *testing.T) {
	cfg := DefaultConfig(3)
	c := New(cfg.Nodes, WithConfig(cfg))
	ports := c.OpenPorts(1)
	tr := tree.Chain(0, c.Members())
	c.InstallGroup(3, tr, 1, 1)
	var mid, leaf sim.Time
	for _, n := range []int{1, 2} {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(64)
			ports[n].Recv(p)
			if n == 1 {
				mid = p.Now()
			} else {
				leaf = p.Now()
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], 3, []byte{1, 2, 3, 4})
	})
	c.Eng.Run()
	c.Eng.Kill()
	hop := (leaf - mid).Micros() // host-observed inter-hop spacing
	lambda := cfg.Postal(4).Lambda.Micros()
	if hop < lambda*0.5 || hop > lambda*2.0 {
		t.Fatalf("measured forwarding hop %.2fus vs analytic lambda %.2fus: model drifted", hop, lambda)
	}
}

func TestDeterministicClusters(t *testing.T) {
	run := func() uint64 {
		c := New(4)
		ports := c.OpenPorts(1)
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[1].Provide(128)
			ports[1].Recv(p)
		})
		c.Eng.Spawn("send", func(p *sim.Proc) {
			ports[0].SendSync(p, 1, 1, []byte{9, 9})
		})
		c.Eng.Run()
		c.Eng.Kill()
		return c.Eng.EventsFired()
	}
	if run() != run() {
		t.Fatal("cluster construction is nondeterministic")
	}
}

func TestGroupIDTypeIsStable(t *testing.T) {
	// Compile-time contract used by the MPI layer's deterministic IDs.
	var g gm.GroupID = 1 + 15*64 + 63
	if g == 0 {
		t.Fatal("impossible")
	}
}

// After Run no port holds a host buffer: the event each port lent last is
// never reused and no spare carries over, so the next run's messages land in
// fresh buffers — and are still delivered. The ports of a shard share their
// spares, so no second-run buffer at any node may be a first-run buffer of
// any node. Serial and sharded alike.
func TestRunLeavesNoHostBuffer(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c := New(4, WithShards(shards))
		ports := c.OpenPorts(1)
		// Every buffer a run delivered in, per run and node. Holding them
		// keeps their addresses from being reused by the allocator.
		var bufs [2][3][][]byte
		for run, fill := range []byte{1, 2} {
			for n := fabric.NodeID(1); n <= 2; n++ {
				c.SpawnOn(n, "recv", func(p *sim.Proc) {
					ports[n].Provide(64)
					for range 3 {
						ev := ports[n].Recv(p)
						if ev.Data[0] != fill {
							t.Errorf("%d shards, run %d: node %v got %d", shards, run, n, ev.Data[0])
						}
						bufs[run][n] = append(bufs[run][n], ev.Data)
						ports[n].Provide(64)
					}
					// Node 1 ends holding its last event; node 2 gives it
					// back, so its port has a spare.
					if n == 2 {
						ports[n].TryRecv()
					}
				})
			}
			c.SpawnOn(3, "send", func(p *sim.Proc) {
				msg := bytes.Repeat([]byte{fill}, 64)
				for range 3 {
					ports[3].SendSync(p, 1, 1, msg)
					ports[3].SendSync(p, 2, 1, msg)
				}
			})
			c.Run()
		}
		firstRun := map[*byte]int{}
		for n := 1; n <= 2; n++ {
			for _, b := range bufs[0][n] {
				firstRun[&b[0]] = n
			}
		}
		for n := 1; n <= 2; n++ {
			if len(bufs[1][n]) != 3 {
				t.Fatalf("%d shards: node %d got %d messages in the second run, want 3", shards, n, len(bufs[1][n]))
			}
			for _, b := range bufs[1][n] {
				if old, ok := firstRun[&b[0]]; ok {
					t.Errorf("%d shards: node %d reused a buffer node %d had in the first run", shards, n, old)
				}
			}
		}
		if last := bufs[0][1][2]; !bytes.Equal(last, bytes.Repeat([]byte{1}, 64)) {
			t.Errorf("%d shards: the event lent at the end of the first run was overwritten", shards)
		}
	}
}
