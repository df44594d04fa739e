// Package myrinet models a Myrinet-2000-style interconnect: point-to-point
// links into wormhole-routed crossbar switches arranged as a Clos network,
// with source-routed, virtual-cut-through packet transport.
//
// The generic fabric machinery — the graph, the transit engine, the
// partitioner, the fault hooks — lives in package fabric; this package is
// the Myrinet backend: crossbar topologies (single Xbar16, two-level Clos,
// three-level fat tree), 2 Gb/s link timing, and the (src*31+dst)
// dispersive source-routing hash. Callers name the fabric types through
// package fabric and select this backend with Default().
package myrinet

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// DefaultLinkParams returns Myrinet-2000-like link characteristics:
// 2 Gb/s (4 ns per byte) and 300 ns of per-hop latency, no PFC (the
// wormhole fabric backpressures in hardware; the simulation's FIFO link
// facilities model that without explicit pause thresholds).
func DefaultLinkParams() fabric.LinkParams { return fabric.DefaultLinkParams() }

// DefaultRadix is the crossbar port count of the modeled hardware
// (Myrinet-2000 Xbar16).
const DefaultRadix = 16

// Default returns the fabric.Config preset for this backend: the paper's
// testbed topology ladder (single crossbar to 16 hosts, two-level Clos to
// 128, fat tree beyond) with Myrinet-2000 link timing.
func Default() fabric.Config {
	return fabric.Config{
		Kind:  "myrinet",
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
// picks for the host count: 2 through one crossbar, 4 through a two-level
// Clos, 6 through the three-level fat tree.
func Diameter(hosts int) int {
	switch {
	case hosts <= 16:
		return 2
	case hosts <= 128:
		return 4
	default:
		return 6
	}
}
