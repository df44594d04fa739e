package myrinet

import (
	"strconv"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// NewSingleSwitch builds a fabric with all hosts on one crossbar — the
// shape of the paper's 16-node testbed (one Myrinet-2000 Xbar16).
func NewSingleSwitch(eng *sim.Engine, hosts int, params fabric.LinkParams) *fabric.Network {
	return fabric.SingleSwitch(eng, hosts, params)
}

// NewClos builds a two-level Clos network out of crossbars with the given
// port count (16 for Myrinet-2000). Each leaf switch carries ports/2 hosts
// and ports/2 uplinks; there are ports/2 spine switches, each linked to
// every leaf. Cross-leaf traffic is spread over spines deterministically
// by (src, dst) hash, the usual Myrinet dispersive source-routing.
func NewClos(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	if ports < 4 || ports%2 != 0 {
		panic("myrinet: Clos needs an even port count >= 4")
	}
	hostsPerLeaf := ports / 2
	leaves := (hosts + hostsPerLeaf - 1) / hostsPerLeaf
	if leaves <= 1 {
		return NewSingleSwitch(eng, hosts, params)
	}
	n := fabric.New(eng, params)

	leafV := make([]*fabric.Vertex, leaves)
	for i := range leafV {
		leafV[i] = n.AddSwitch("leaf" + strconv.Itoa(i))
	}
	spines := ports / 2
	// up[l][s] is the leaf->spine link, down[s][l] the reverse.
	up := make([][]int32, leaves)
	down := make([][]int32, spines)
	for s := 0; s < spines; s++ {
		down[s] = make([]int32, leaves)
	}
	for l := 0; l < leaves; l++ {
		up[l] = make([]int32, spines)
	}
	for s := 0; s < spines; s++ {
		sv := n.AddSwitch("spine" + strconv.Itoa(s))
		for l := 0; l < leaves; l++ {
			u, d := n.Connect(leafV[l], sv)
			up[l][s] = u.ID()
			down[s][l] = d.ID()
		}
	}
	hostUp := make([]int32, hosts)
	hostDown := make([]int32, hosts)
	for i := 0; i < hosts; i++ {
		_, u, d := n.AddHost(fabric.NodeID(i), leafV[i/hostsPerLeaf])
		hostUp[i], hostDown[i] = u.ID(), d.ID()
	}
	n.SetRoute(func(r []int32, src, dst fabric.NodeID) []int32 {
		if src == dst {
			panic("myrinet: route to self")
		}
		sl, dl := int(src)/hostsPerLeaf, int(dst)/hostsPerLeaf
		if sl == dl {
			return append(r, hostUp[src], hostDown[dst])
		}
		spine := (int(src)*31 + int(dst)) % spines
		return append(r, hostUp[src], up[sl][spine], down[spine][dl], hostDown[dst])
	})
	n.SetMetrics(nil)
	return n
}

// AutoTopology picks the smallest standard fabric that carries the host
// count: one crossbar up to 16 hosts (the paper's testbed), a two-level
// Clos up to 128, and a three-level fat tree beyond — matching "Myrinet
// network uses its default hardware topology, Clos network". A k-port fat
// tree tops out at k³/4 hosts (1024 for the Myrinet-2000 Xbar16), so past
// that the radix doubles until the pod count fits — the way large Myrinet
// installations scale by moving to wider crossbar line cards.
func AutoTopology(eng *sim.Engine, hosts int, params fabric.LinkParams) *fabric.Network {
	return autoTopology(eng, hosts, DefaultRadix, params)
}

func autoTopology(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	switch {
	case hosts <= ports:
		return NewSingleSwitch(eng, hosts, params)
	case hosts <= ports*ports/2:
		return NewClos(eng, hosts, ports, params)
	default:
		for hosts > ports*ports*ports/4 {
			ports *= 2
		}
		return NewFatTree(eng, hosts, ports, params)
	}
}
