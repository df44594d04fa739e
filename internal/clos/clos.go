// Package clos is the datacenter fabric backend: a higher-radix multi-tier
// Clos (ToR, leaf-spine, three-tier) with deterministic ECMP path
// selection, RDMA-era link speeds, and PFC-style link-level backpressure.
//
// It reproduces the environment of Gleam-style RDMA multicast work: the
// same NIC-offloaded replication protocol the paper builds on Myrinet/GM-2
// runs here over a lossless 100 Gb/s fabric, so the chaos campaigns and
// membership scenarios compare the two eras on identical workloads. The
// fabric stays lossless under congestion — pause thresholds park senders
// instead of overflowing buffers — so packet loss comes only from injected
// faults, exactly the RoCE/PFC operating point.
//
// Everything protocol-visible is deterministic: ECMP spreads flows with a
// fixed splitmix64 hash of (src, dst), so a route never depends on load or
// iteration order, and sharded runs replay the serial timeline exactly.
package clos

import (
	"fmt"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// DefaultRadix is the switch port count the topology is sized with — a
// 32-port datacenter switch ASIC (a modest one; the builder doubles the
// radix automatically when the host count outgrows the three-tier fabric).
const DefaultRadix = 32

// DefaultLinkParams returns RDMA-era datacenter link characteristics:
// 100 Gb/s (0.08 ns per byte), ~500 ns per hop (cut-through switch plus
// longer datacenter cable runs), and PFC pause thresholds sized to a few
// dozen MTU-sized packets of per-link headroom with drain/resume
// hysteresis.
func DefaultLinkParams() fabric.LinkParams {
	return fabric.LinkParams{
		Latency:     500 * sim.Nanosecond,
		NsPerByte:   0.08,
		PauseBytes:  256 << 10, // pause a sender queueing past 256 KiB
		ResumeBytes: 192 << 10, // wake once the backlog drains to 192 KiB
	}
}

// Default returns the fabric.Config preset for this backend.
func Default() fabric.Config {
	return fabric.Config{
		Kind:  "clos",
		Links: DefaultLinkParams(),
		Radix: DefaultRadix,
		Build: func(eng *sim.Engine, hosts int, cfg fabric.Config) *fabric.Network {
			ports := cfg.Radix
			if ports == 0 {
				ports = DefaultRadix
			}
			return autoTopology(eng, hosts, ports, cfg.Links)
		},
		Diameter: Diameter,
	}
}

// Diameter reports the worst-case hop count of the topology AutoTopology
// picks for the host count at the default radix: 2 through one ToR, 4
// through leaf-spine, 6 through the three-tier fabric.
func Diameter(hosts int) int {
	switch {
	case hosts <= DefaultRadix:
		return 2
	case hosts <= DefaultRadix*DefaultRadix/2:
		return 4
	default:
		return 6
	}
}

// ecmp is the deterministic flow hash spreading (src, dst) pairs across
// equal-cost paths — splitmix64 finalization over the flow tuple, the
// simulation stand-in for hashing the RoCE 5-tuple. Unlike myrinet's
// (src*31+dst) dispersive hash it decorrelates neighboring node IDs, so
// incast from consecutive senders does not pile onto one spine.
func ecmp(src, dst fabric.NodeID, salt uint64) uint64 {
	x := uint64(uint32(src))<<32 | uint64(uint32(dst))
	x ^= salt
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewToR builds the degenerate single-switch fabric: every host on one
// top-of-rack switch.
func NewToR(eng *sim.Engine, hosts int, params fabric.LinkParams) *fabric.Network {
	if hosts < 1 {
		panic("clos: need at least one host")
	}
	n := fabric.New(eng, params)
	tor := n.AddSwitch("tor0")
	for i := 0; i < hosts; i++ {
		n.AddHost(fabric.NodeID(i), tor)
	}
	n.SetRoute(func(r []int32, src, dst fabric.NodeID) []int32 {
		if src == dst {
			panic("clos: route to self")
		}
		return append(r, n.Iface(src).Uplink().ID(), n.Iface(dst).Downlink().ID())
	})
	n.SetMetrics(nil)
	return n
}

// NewLeafSpine builds a two-tier Clos: leaves with ports/2 hosts and
// ports/2 spine uplinks, every leaf connected to every spine, cross-leaf
// flows spread over spines by the ECMP hash.
func NewLeafSpine(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	if ports < 4 || ports%2 != 0 {
		panic("clos: leaf-spine needs an even port count >= 4")
	}
	hostsPerLeaf := ports / 2
	leaves := (hosts + hostsPerLeaf - 1) / hostsPerLeaf
	if leaves <= 1 {
		return NewToR(eng, hosts, params)
	}
	if leaves > ports {
		panic(fmt.Sprintf("clos: %d hosts exceed a %d-port leaf-spine's capacity (%d)",
			hosts, ports, ports*hostsPerLeaf))
	}
	n := fabric.New(eng, params)

	leafV := make([]*fabric.Vertex, leaves)
	for i := range leafV {
		leafV[i] = n.AddSwitch("leaf" + strconv.Itoa(i))
	}
	spines := ports / 2
	up := make([][]int32, leaves)
	down := make([][]int32, spines)
	for s := range down {
		down[s] = make([]int32, leaves)
	}
	for l := range up {
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
			panic("clos: route to self")
		}
		sl, dl := int(src)/hostsPerLeaf, int(dst)/hostsPerLeaf
		if sl == dl {
			return append(r, hostUp[src], hostDown[dst])
		}
		s := int(ecmp(src, dst, 0) % uint64(spines))
		return append(r, hostUp[src], up[sl][s], down[s][dl], hostDown[dst])
	})
	n.SetMetrics(nil)
	return n
}

// NewThreeTier builds a three-tier folded Clos of k-port switches — k
// pods of k/2 leaves (k/2 hosts each) and k/2 pod spines, plus (k/2)²
// core switches — carrying up to k³/4 hosts. The leaf→spine and
// spine→core stages are both spread by the ECMP hash.
func NewThreeTier(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	if ports < 4 || ports%2 != 0 {
		panic("clos: three-tier needs an even port count >= 4")
	}
	half := ports / 2
	hostsPerLeaf := half
	hostsPerPod := half * hostsPerLeaf
	pods := (hosts + hostsPerPod - 1) / hostsPerPod
	if pods <= 1 {
		return NewLeafSpine(eng, hosts, ports, params)
	}
	if pods > ports {
		panic(fmt.Sprintf("clos: %d hosts exceed a %d-port three-tier fabric's capacity (%d)",
			hosts, ports, ports*hostsPerPod))
	}
	n := fabric.New(eng, params)

	leaves := make([][]*fabric.Vertex, pods)
	spines := make([][]*fabric.Vertex, pods)
	leafUp := make([][][]int32, pods)    // [p][l][s]
	spineDown := make([][][]int32, pods) // [p][s][l]
	for p := 0; p < pods; p++ {
		leaves[p] = make([]*fabric.Vertex, half)
		spines[p] = make([]*fabric.Vertex, half)
		leafUp[p] = make([][]int32, half)
		spineDown[p] = make([][]int32, half)
		for l := 0; l < half; l++ {
			leaves[p][l] = n.AddSwitch("leaf" + strconv.Itoa(p) + "." + strconv.Itoa(l))
			leafUp[p][l] = make([]int32, half)
		}
		for s := 0; s < half; s++ {
			spines[p][s] = n.AddSwitch("spine" + strconv.Itoa(p) + "." + strconv.Itoa(s))
			spineDown[p][s] = make([]int32, half)
		}
		for l := 0; l < half; l++ {
			for s := 0; s < half; s++ {
				u, d := n.Connect(leaves[p][l], spines[p][s])
				leafUp[p][l][s] = u.ID()
				spineDown[p][s][l] = d.ID()
			}
		}
	}

	// Core plane: pod spine s connects to cores [s*half, (s+1)*half).
	cores := make([]*fabric.Vertex, half*half)
	spineUp := make([][][]int32, pods) // [p][s][j] to core s*half+j
	coreDown := make([][]int32, len(cores))
	for c := range cores {
		cores[c] = n.AddSwitch("core" + strconv.Itoa(c))
		coreDown[c] = make([]int32, pods)
	}
	for p := 0; p < pods; p++ {
		spineUp[p] = make([][]int32, half)
		for s := 0; s < half; s++ {
			spineUp[p][s] = make([]int32, half)
			for j := 0; j < half; j++ {
				c := s*half + j
				u, d := n.Connect(spines[p][s], cores[c])
				spineUp[p][s][j] = u.ID()
				coreDown[c][p] = d.ID()
			}
		}
	}

	// Each host's links and place: a route looks both up rather than
	// dividing for them.
	type attach struct{ up, down, pod, leaf int32 }
	at := make([]attach, hosts)
	for i := range at {
		p := i / hostsPerPod
		l := (i % hostsPerPod) / hostsPerLeaf
		_, u, d := n.AddHost(fabric.NodeID(i), leaves[p][l])
		at[i] = attach{u.ID(), d.ID(), int32(p), int32(l)}
	}

	n.SetRoute(func(r []int32, src, dst fabric.NodeID) []int32 {
		if src == dst {
			panic("clos: route to self")
		}
		sa, da := &at[src], &at[dst]
		if sa.pod == da.pod && sa.leaf == da.leaf {
			return append(r, sa.up, da.down)
		}
		h := ecmp(src, dst, 0)
		s := int(h % uint64(half))
		if sa.pod == da.pod {
			return append(r, sa.up, leafUp[sa.pod][sa.leaf][s], spineDown[sa.pod][s][da.leaf], da.down)
		}
		j := int((h >> 32) % uint64(half))
		c := s*half + j
		return append(r,
			sa.up,
			leafUp[sa.pod][sa.leaf][s],
			spineUp[sa.pod][s][j],
			coreDown[c][da.pod],
			spineDown[da.pod][s][da.leaf],
			da.down,
		)
	})
	n.SetMetrics(nil)
	return n
}

// AutoTopology picks the smallest standard fabric for the host count: one
// ToR while every host fits on a single switch, leaf-spine to ports²/2
// hosts, a three-tier Clos beyond. Past the three-tier capacity (ports³/4
// hosts) the radix doubles until the pod count fits — the way datacenter
// fabrics scale by moving to wider switch ASICs.
func AutoTopology(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	return autoTopology(eng, hosts, ports, params)
}

func autoTopology(eng *sim.Engine, hosts, ports int, params fabric.LinkParams) *fabric.Network {
	switch {
	case hosts <= ports:
		return NewToR(eng, hosts, params)
	case hosts <= ports*ports/2:
		return NewLeafSpine(eng, hosts, ports, params)
	default:
		for hosts > ports*ports*ports/4 {
			ports *= 2
		}
		return NewThreeTier(eng, hosts, ports, params)
	}
}
