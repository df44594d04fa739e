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
	edgeUp := make([][][]*fabric.Link, pods)
	aggDown := make([][][]*fabric.Link, pods)
	for p := 0; p < pods; p++ {
		edges[p] = make([]*fabric.Vertex, half)
		aggs[p] = make([]*fabric.Vertex, half)
		edgeUp[p] = make([][]*fabric.Link, half)
		aggDown[p] = make([][]*fabric.Link, half)
		for e := 0; e < half; e++ {
			edges[p][e] = n.AddSwitch("edge" + strconv.Itoa(p) + "." + strconv.Itoa(e))
			edgeUp[p][e] = make([]*fabric.Link, half)
		}
		for a := 0; a < half; a++ {
			aggs[p][a] = n.AddSwitch("agg" + strconv.Itoa(p) + "." + strconv.Itoa(a))
			aggDown[p][a] = make([]*fabric.Link, half)
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				up, down := n.Connect(edges[p][e], aggs[p][a])
				edgeUp[p][e][a] = up
				aggDown[p][a][e] = down
			}
		}
	}

	// Core switches: agg index a in every pod connects to cores
	// [a*half, (a+1)*half).
	cores := make([]*fabric.Vertex, half*half)
	aggUp := make([][][]*fabric.Link, pods) // [p][a][j] to core a*half+j
	coreDown := make([][]*fabric.Link, len(cores))
	for c := range cores {
		cores[c] = n.AddSwitch("core" + strconv.Itoa(c))
		coreDown[c] = make([]*fabric.Link, pods)
	}
	for p := 0; p < pods; p++ {
		aggUp[p] = make([][]*fabric.Link, half)
		for a := 0; a < half; a++ {
			aggUp[p][a] = make([]*fabric.Link, half)
			for j := 0; j < half; j++ {
				c := a*half + j
				up, down := n.Connect(aggs[p][a], cores[c])
				aggUp[p][a][j] = up
				coreDown[c][p] = down
			}
		}
	}

	// Hosts.
	hostUp := make([]*fabric.Link, hosts)
	hostDown := make([]*fabric.Link, hosts)
	for i := 0; i < hosts; i++ {
		p := i / hostsPerPod
		e := (i % hostsPerPod) / hostsPerEdge
		_, up, down := n.AddHost(fabric.NodeID(i), edges[p][e])
		hostUp[i], hostDown[i] = up, down
	}

	podOf := func(h fabric.NodeID) int { return int(h) / hostsPerPod }
	edgeOf := func(h fabric.NodeID) int { return (int(h) % hostsPerPod) / hostsPerEdge }

	n.SetRoute(func(src, dst fabric.NodeID) []*fabric.Link {
		if src == dst {
			panic("myrinet: route to self")
		}
		sp, se := podOf(src), edgeOf(src)
		dp, de := podOf(dst), edgeOf(dst)
		h := int(src)*31 + int(dst)
		if sp == dp && se == de {
			return []*fabric.Link{hostUp[src], hostDown[dst]}
		}
		if sp == dp {
			a := h % half
			return []*fabric.Link{hostUp[src], edgeUp[sp][se][a], aggDown[sp][a][de], hostDown[dst]}
		}
		a := h % half
		j := (h / half) % half
		c := a*half + j
		return []*fabric.Link{
			hostUp[src],
			edgeUp[sp][se][a],
			aggUp[sp][a][j],
			coreDown[c][dp],
			aggDown[dp][a][de],
			hostDown[dst],
		}
	})
	n.SetMetrics(nil)
	return n
}
