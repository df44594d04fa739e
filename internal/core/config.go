// Package core implements the paper's contribution: a high performance and
// reliable NIC-based multicast for GM-2, consisting of
//
//   - a NIC-based multisend mechanism — one host request makes the NIC
//     transmit replicas of each packet to a list of destinations, rewriting
//     the header in a transmit-completion callback (GM-2's packet
//     descriptor callbacks) instead of reprocessing a host request per
//     destination;
//
//   - a NIC-based forwarding mechanism — an intermediate NIC looks the
//     arriving packet's group up in its preposted group table and requeues
//     it to its children straight out of the receive buffer, without host
//     involvement and without waiting for the rest of the message
//     (per-packet pipelining);
//
//   - group-based reliability — per group the NIC tracks a receive
//     sequence number, a send sequence number and an array of acknowledged
//     sequence numbers per child; timeouts retransmit only to children
//     that have not acknowledged, reading the data back from the message
//     replica in registered host memory so NIC receive buffers are
//     released as soon as forwarding completes;
//
//   - deadlock avoidance without credit-based flow control — spanning
//     trees are built over destinations sorted by network ID (package
//     tree) so receive-token dependencies cannot form a cycle.
//
// The package installs itself into package gm as a firmware Extension: its
// packets run on gm's descriptors and send tokens, and it fills the slot
// gm's stage machine leaves empty for unicast.
package core

import "repro/internal/sim"

// MultisendMode selects how the root transmits message replicas — the
// design alternatives of Section 5, "Sending of Multiple Message Replicas".
type MultisendMode int

const (
	// ModeCallback is the implemented choice: one send token; after each
	// transmission the packet-descriptor callback rewrites the header and
	// requeues the same NIC buffer for the next destination.
	ModeCallback MultisendMode = iota
	// ModeTokens is design alternative 1: the NIC generates one send token
	// per destination from the single host request. Each replica repeats
	// the per-token processing and its own host DMA; the paper argues this
	// "saves nothing more than the posting of multiple send events".
	ModeTokens
)

// ForwardMode selects how an intermediate NIC forwards — the pipelining
// ablation.
type ForwardMode int

const (
	// ForwardPerPacket forwards each packet as it arrives (the paper's
	// scheme: "an intermediate NIC can forward the packets of a message
	// without waiting for the arrival of the complete message").
	ForwardPerPacket ForwardMode = iota
	// ForwardStoreAndForward holds packets until the whole message has
	// arrived, the behaviour the host-based scheme is stuck with.
	ForwardStoreAndForward
)

// RetransmitSource selects where retransmitted data comes from — Section
// 5's "which replica of the message should be made available".
type RetransmitSource int

const (
	// RetransmitFromHost releases the NIC receive buffer as soon as
	// forwarding completes and re-reads retransmissions from the message
	// replica in registered host memory (the implemented choice).
	RetransmitFromHost RetransmitSource = iota
	// RetransmitHoldBuffer is the naive alternative: keep the NIC receive
	// buffer until every child acknowledges. "Holding on to one or more
	// receive buffers will slow down the receiver or even block the
	// network."
	RetransmitHoldBuffer
)

// Config holds the multicast firmware costs, charged on the LANai CPU.
type Config struct {
	// Multisend, Forward and Retransmit select among the design
	// alternatives of Section 5; the defaults are the paper's choices and
	// the alternatives exist for the ablation benchmarks.
	Multisend  MultisendMode
	Forward    ForwardMode
	Retransmit RetransmitSource

	// HeaderRewriteCost is the callback-handler cost of changing a packet
	// header and requeueing the same NIC buffer for the next destination —
	// the "small overhead ... represented with the wide bars" in Figure 2b.
	HeaderRewriteCost sim.Time
	// ForwardSetupCost is the cost, at an intermediate NIC, of looking up
	// the group table and transforming the receive token into a send token
	// for the first child.
	ForwardSetupCost sim.Time
	// GroupInstallCost is the cost of inserting one group's membership and
	// tree information into the NIC group table.
	GroupInstallCost sim.Time
	// ReduceElemCost is the LANai's per-element combining cost for
	// NIC-based reduction — the slow-NIC-processor trade-off the
	// companion reduction paper weighs.
	ReduceElemCost sim.Time

	// AggregateAcks turns on NIC tree ack aggregation: an interior NIC
	// absorbs its children's cumulative acks and forwards one aggregate —
	// the serial-min floor its whole subtree has delivered — upward only
	// when that floor advances, while leaves coalesce their receipt floor
	// under gm's AckEvery/AckDelay bounds. The root then sees O(fanout)
	// ack events per window instead of O(N), and a record retiring at the
	// root proves the entire subtree delivered. Off by default (per-packet
	// hop-by-hop acks, the timeline-pinned behavior).
	AggregateAcks bool
}

// DefaultConfig returns costs calibrated alongside gm.DefaultConfig.
func DefaultConfig() Config {
	return Config{
		HeaderRewriteCost: sim.Micros(0.55),
		ForwardSetupCost:  sim.Micros(3.0),
		GroupInstallCost:  sim.Micros(1.5),
		ReduceElemCost:    sim.Micros(0.08),
	}
}
