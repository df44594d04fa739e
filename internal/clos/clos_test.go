package clos_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/tree"
)

// switchLabels collects the distinct non-host vertex labels of a network.
func switchLabels(n *fabric.Network) map[string]bool {
	out := map[string]bool{}
	for _, l := range n.Links() {
		for _, lbl := range []string{l.FromLabel(), l.ToLabel()} {
			if !strings.HasPrefix(lbl, "host") {
				out[lbl] = true
			}
		}
	}
	return out
}

// TestAutoTopologyTiers pins which fabric each host count gets and the
// hop counts the tiers promise: 2 through a ToR, 2/4 through leaf-spine,
// 2/4/6 through the three-tier Clos — matching clos.Diameter.
func TestAutoTopologyTiers(t *testing.T) {
	params := clos.DefaultLinkParams()

	tor := clos.AutoTopology(sim.NewEngine(), 16, 32, params)
	if sw := switchLabels(tor); len(sw) != 1 || !sw["tor0"] {
		t.Fatalf("16 hosts on radix 32 built switches %v, want just tor0", sw)
	}
	if hops := tor.HopCount(0, 15); hops != 2 {
		t.Errorf("ToR hop count %d, want 2", hops)
	}

	ls := clos.AutoTopology(sim.NewEngine(), 48, 32, params)
	sw := switchLabels(ls)
	if !sw["leaf0"] || !sw["leaf2"] || !sw["spine0"] {
		t.Fatalf("48 hosts on radix 32 built switches %v, want a leaf-spine", sw)
	}
	if hops := ls.HopCount(0, 1); hops != 2 {
		t.Errorf("same-leaf hop count %d, want 2", hops)
	}
	if hops := ls.HopCount(0, 47); hops != 4 {
		t.Errorf("cross-leaf hop count %d, want 4", hops)
	}

	tt := clos.AutoTopology(sim.NewEngine(), 600, 32, params)
	sw = switchLabels(tt)
	if !sw["leaf0.0"] || !sw["spine1.0"] || !sw["core0"] {
		t.Fatalf("600 hosts on radix 32 built switches %v, want a three-tier Clos", sw)
	}
	if hops := tt.HopCount(0, 1); hops != 2 {
		t.Errorf("same-leaf hop count %d, want 2", hops)
	}
	if hops := tt.HopCount(0, 100); hops != 4 {
		t.Errorf("same-pod hop count %d, want 4", hops)
	}
	if hops := tt.HopCount(0, 599); hops != 6 {
		t.Errorf("cross-pod hop count %d, want 6", hops)
	}

	for _, hosts := range []int{16, 48, 600} {
		want := 2
		switch {
		case hosts > clos.DefaultRadix*clos.DefaultRadix/2:
			want = 6
		case hosts > clos.DefaultRadix:
			want = 4
		}
		if got := clos.Diameter(hosts); got != want {
			t.Errorf("Diameter(%d) = %d, want %d", hosts, got, want)
		}
	}
}

// TestRadixDoubling checks the capacity escape hatch: a host count past
// ports³/4 widens the switches instead of failing, and the result still
// routes everything within six hops.
func TestRadixDoubling(t *testing.T) {
	n := clos.AutoTopology(sim.NewEngine(), 20, 4, clos.DefaultLinkParams())
	for dst := 1; dst < 20; dst++ {
		if hops := n.HopCount(0, fabric.NodeID(dst)); hops < 2 || hops > 6 {
			t.Fatalf("route 0->%d has %d hops, want 2..6", dst, hops)
		}
	}
}

// TestRouteDeterminism builds the same leaf-spine twice and requires
// identical routes for every flow — path choice is a pure hash, never a
// function of construction state or load.
func TestRouteDeterminism(t *testing.T) {
	path := func(n *fabric.Network, src, dst fabric.NodeID) string {
		var b strings.Builder
		for _, l := range n.Route(src, dst) {
			fmt.Fprintf(&b, "%s|", l)
		}
		return b.String()
	}
	a := clos.NewLeafSpine(sim.NewEngine(), 48, 32, clos.DefaultLinkParams())
	b := clos.NewLeafSpine(sim.NewEngine(), 48, 32, clos.DefaultLinkParams())
	spines := map[string]bool{}
	for src := 0; src < 8; src++ {
		for dst := 40; dst < 48; dst++ {
			pa := path(a, fabric.NodeID(src), fabric.NodeID(dst))
			if pb := path(b, fabric.NodeID(src), fabric.NodeID(dst)); pa != pb {
				t.Fatalf("route %d->%d differs between identical builds:\n%s\nvs\n%s", src, dst, pa, pb)
			}
			spines[strings.Split(pa, "|")[1]] = true
		}
	}
	if len(spines) < 8 {
		t.Errorf("64 cross-leaf flows used only %d spine uplinks; ECMP not spreading", len(spines))
	}
}

// closRun drives the full NIC-multicast stack — group install, then
// pipelined root multicasts — on a Clos-backed cluster, returning the
// merged (timestamp, tiebreak key) event timeline with the final clock.
// It is the Clos instantiation of the PDES acceptance probe.
func closRun(t *testing.T, nodes, shards, msgs int, seed int64) golden.Capture {
	t.Helper()
	c := cluster.New(nodes,
		cluster.WithFabric(clos.Default()),
		cluster.WithShards(shards),
		cluster.WithSeed(seed),
	)
	stream := golden.Hook(c.Engines())
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	for i := 1; i < nodes; i++ {
		port := ports[i]
		c.SpawnOn(fabric.NodeID(i), "recv", func(p *sim.Proc) {
			port.ProvideN(msgs+2, 1<<12)
			for got := 0; got < msgs; got++ {
				port.Recv(p)
			}
		})
	}
	c.Run()
	if !ready() {
		t.Fatalf("group install incomplete after quiescence (shards=%d)", shards)
	}
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for i := 0; i < msgs; i++ {
			ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	c.Run()
	cp := golden.Capture{Clock: c.Now(), Stream: stream()}
	c.Kill()
	return cp
}

// TestClosShardedEquivalence is the PDES acceptance bar on the new
// backend: on a multi-leaf Clos with real cross-shard trunk traffic, the
// sharded timeline must replay the serial one exactly — every timestamp
// and tiebreak key — across shard counts and seeds.
func TestClosShardedEquivalence(t *testing.T) {
	const nodes, msgs = 40, 4
	for _, seed := range []int64{5, 11, 23} {
		serial := closRun(t, nodes, 1, msgs, seed)
		if len(serial.Stream) == 0 {
			t.Fatal("serial Clos run fired no events")
		}
		for _, shards := range []int{2, 4} {
			golden.Equal(t, serial, closRun(t, nodes, shards, msgs, seed))
			if t.Failed() {
				t.Fatalf("seed %d shards %d: timeline diverged from the serial run", seed, shards)
			}
		}
	}
}

// TestClosTierTrafficSmoke runs the multicast stack serially on each tier
// the auto-topology can pick, requiring full delivery and a reproducible
// clock. The 600-node point doubles as the three-tier construction check
// under a real protocol load.
func TestClosTierTrafficSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("three-tier smoke is slow")
	}
	for _, nodes := range []int{8, 48, 600} {
		a, b := closRun(t, nodes, 1, 2, 1), closRun(t, nodes, 1, 2, 1)
		if len(a.Stream) == 0 {
			t.Fatalf("%d-node run fired no events", nodes)
		}
		if a.Clock != b.Clock {
			t.Errorf("%d-node run not reproducible: %v vs %v", nodes, a.Clock, b.Clock)
		}
	}
}
