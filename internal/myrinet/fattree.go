package myrinet

import (
	"fmt"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// NewFatTree builds a three-level folded-Clos (fat-tree) network of
// k-port crossbars — the shape of large Myrinet installations (GM "can
// support clusters of over 10,000 nodes"; the fabric grows by adding
// switch stages). With k-port switches the topology carries up to k³/4
// hosts: k pods, each with k/2 edge switches of k/2 hosts, k/2
// aggregation switches per pod, and (k/2)² core switches.
//
// Routes are deterministic up-down paths: same-edge traffic crosses one
// switch (2 hops), same-pod traffic three (4 hops), cross-pod traffic
// five (6 hops), with the aggregation and core stage spread by a (src,
// dst) hash — Myrinet's dispersive source routing.
func NewFatTree(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	if ports < 4 || ports%2 != 0 {
		panic("myrinet: fat tree needs an even port count >= 4")
	}
	half := ports / 2
	hostsPerEdge := half
	hostsPerPod := half * hostsPerEdge
	pods := (hosts + hostsPerPod - 1) / hostsPerPod
	if pods <= 1 {
		return NewClos(eng, hosts, ports, params)
	}
	if pods > ports {
		panic(fmt.Sprintf("myrinet: %d hosts exceed a %d-port fat tree's capacity (%d)",
			hosts, ports, ports*hostsPerPod))
	}

	n := fabric.New(eng, params)

	// Edge and aggregation switches per pod.
	edges := make([][]*fabric.Vertex, pods)
	aggs := make([][]*fabric.Vertex, pods)
	// Intra-pod links: edgeUp[p][e][a], aggDown[p][a][e].
	edgeUp := make([][][]int32, pods)
	aggDown := make([][][]int32, pods)
	for p := 0; p < pods; p++ {
		edges[p] = make([]*fabric.Vertex, half)
		aggs[p] = make([]*fabric.Vertex, half)
		edgeUp[p] = make([][]int32, half)
		aggDown[p] = make([][]int32, half)
		for e := 0; e < half; e++ {
			edges[p][e] = n.AddSwitch("edge" + strconv.Itoa(p) + "." + strconv.Itoa(e))
			edgeUp[p][e] = make([]int32, half)
		}
		for a := 0; a < half; a++ {
			aggs[p][a] = n.AddSwitch("agg" + strconv.Itoa(p) + "." + strconv.Itoa(a))
			aggDown[p][a] = make([]int32, half)
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				up, down := n.Connect(edges[p][e], aggs[p][a])
				edgeUp[p][e][a] = up.ID()
				aggDown[p][a][e] = down.ID()
			}
		}
	}

	// Core switches: agg index a in every pod connects to cores
	// [a*half, (a+1)*half).
	cores := make([]*fabric.Vertex, half*half)
	aggUp := make([][][]int32, pods) // [p][a][j] to core a*half+j
	coreDown := make([][]int32, len(cores))
	for c := range cores {
		cores[c] = n.AddSwitch("core" + strconv.Itoa(c))
		coreDown[c] = make([]int32, pods)
	}
	for p := 0; p < pods; p++ {
		aggUp[p] = make([][]int32, half)
		for a := 0; a < half; a++ {
			aggUp[p][a] = make([]int32, half)
			for j := 0; j < half; j++ {
				c := a*half + j
				up, down := n.Connect(aggs[p][a], cores[c])
				aggUp[p][a][j] = up.ID()
				coreDown[c][p] = down.ID()
			}
		}
	}

	// Hosts, each with its links and place: a route looks both up rather
	// than dividing for them.
	type attach struct{ up, down, pod, edge int32 }
	at := make([]attach, hosts)
	for i := range at {
		p := i / hostsPerPod
		e := (i % hostsPerPod) / hostsPerEdge
		_, up, down := n.AddHost(fabric.NodeID(i), edges[p][e])
		at[i] = attach{up.ID(), down.ID(), int32(p), int32(e)}
	}

	n.SetRoute(func(r []int32, src, dst fabric.NodeID) []int32 {
		if src == dst {
			panic("myrinet: route to self")
		}
		s, d := &at[src], &at[dst]
		h := int(src)*31 + int(dst)
		if s.pod == d.pod && s.edge == d.edge {
			return append(r, s.up, d.down)
		}
		a := h % half
		if s.pod == d.pod {
			return append(r, s.up, edgeUp[s.pod][s.edge][a], aggDown[s.pod][a][d.edge], d.down)
		}
		j := (h / half) % half
		c := a*half + j
		return append(r,
			s.up,
			edgeUp[s.pod][s.edge][a],
			aggUp[s.pod][a][j],
			coreDown[c][d.pod],
			aggDown[d.pod][a][d.edge],
			d.down,
		)
	})
	n.SetMetrics(nil)
	return n
}
