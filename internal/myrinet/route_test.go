package myrinet

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// samplePairs picks the (src, dst) pairs a route test checks: every pair
// of a small fabric, else the two extremes and 400 drawn at random.
func samplePairs(hosts int) [][2]fabric.NodeID {
	var pairs [][2]fabric.NodeID
	if hosts <= 32 {
		for s := 0; s < hosts; s++ {
			for d := 0; d < hosts; d++ {
				if s != d {
					pairs = append(pairs, [2]fabric.NodeID{fabric.NodeID(s), fabric.NodeID(d)})
				}
			}
		}
		return pairs
	}
	last := fabric.NodeID(hosts - 1)
	pairs = append(pairs, [2]fabric.NodeID{0, last}, [2]fabric.NodeID{last, 0})
	rng := sim.NewRNG(int64(hosts))
	for len(pairs) < 402 {
		s, d := rng.Intn(hosts), rng.Intn(hosts)
		if s != d {
			pairs = append(pairs, [2]fabric.NodeID{fabric.NodeID(s), fabric.NodeID(d)})
		}
	}
	return pairs
}

// checkRoute fails t unless route is well formed — it leaves src on its
// uplink, arrives on dst's downlink, each link starts where the last one
// ended, and it has at most fabric.MaxHops links — and crosses the
// switches named by want, in order.
func checkRoute(t *testing.T, n *fabric.Network, src, dst fabric.NodeID, want []string) {
	t.Helper()
	route := n.Route(src, dst)
	if len(route) == 0 || len(route) > fabric.MaxHops {
		t.Fatalf("%d hosts, %v -> %v: %d links, want 1 to %d", n.Hosts(), src, dst, len(route), fabric.MaxHops)
	}
	if route[0] != n.Iface(src).Uplink() || route[len(route)-1] != n.Iface(dst).Downlink() {
		t.Fatalf("%d hosts, %v -> %v: route %v does not run from src's uplink to dst's downlink", n.Hosts(), src, dst, route)
	}
	labels := []string{route[0].FromLabel()}
	for i, l := range route {
		if i > 0 && l.FromLabel() != route[i-1].ToLabel() {
			t.Fatalf("%d hosts, %v -> %v: route %v breaks at link %d", n.Hosts(), src, dst, route, i)
		}
		labels = append(labels, l.ToLabel())
	}
	if fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Fatalf("%d hosts, %v -> %v: route crosses %v, want %v", n.Hosts(), src, dst, labels, want)
	}
}

// TestRoutesWellFormed checks every tier of AutoTopology on each side of
// its boundary — one crossbar to 16 hosts, a two-level Clos to 128, the
// fat tree beyond, its radix doubled past 1024 — and that each route is
// the up-down path the (src*31+dst) dispersive hash picks, so source
// routing spreads flows over the same switches whatever computes it.
func TestRoutesWellFormed(t *testing.T) {
	for _, hosts := range []int{16, 17, 128, 129, 1024, 1025} {
		n := AutoTopology(sim.NewEngine(), hosts, DefaultLinkParams())
		ports := DefaultRadix
		for hosts > ports*ports*ports/4 {
			ports *= 2
		}
		half := ports / 2
		for _, pair := range samplePairs(hosts) {
			s, d := int(pair[0]), int(pair[1])
			h := s*31 + d
			hs, hd := fmt.Sprintf("host%d", s), fmt.Sprintf("host%d", d)
			var want []string
			switch {
			case hosts <= ports:
				want = []string{hs, "xbar0", hd}
			case hosts <= ports*half:
				sl, dl := s/half, d/half
				if sl == dl {
					want = []string{hs, fmt.Sprint("leaf", sl), hd}
				} else {
					want = []string{hs, fmt.Sprint("leaf", sl), fmt.Sprint("spine", h%half), fmt.Sprint("leaf", dl), hd}
				}
			default:
				perPod := half * half
				sp, se, dp, de := s/perPod, s%perPod/half, d/perPod, d%perPod/half
				a := h % half
				edge := func(p, e int) string { return fmt.Sprintf("edge%d.%d", p, e) }
				agg := func(p int) string { return fmt.Sprintf("agg%d.%d", p, a) }
				switch {
				case sp == dp && se == de:
					want = []string{hs, edge(sp, se), hd}
				case sp == dp:
					want = []string{hs, edge(sp, se), agg(sp), edge(dp, de), hd}
				default:
					core := fmt.Sprint("core", a*half+h/half%half)
					want = []string{hs, edge(sp, se), agg(sp), core, agg(dp), edge(dp, de), hd}
				}
			}
			checkRoute(t, n, pair[0], pair[1], want)
		}
	}
}
