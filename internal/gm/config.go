// Package gm implements a GM-2-like user-level message-passing protocol as
// firmware running on the lanai NIC model: ports, send/receive tokens,
// per-connection sequence numbers, send records with ack/timeout go-back-N
// retransmission, 4 KB-MTU packetization, and DMA'd completion events —
// the substrate the paper's NIC-based multicast (package core) is grafted
// onto via firmware extension hooks.
package gm

import "repro/internal/sim"

// PortID identifies a communication endpoint on a NIC. GM protects ports
// from each other; each user process opens its own.
type PortID int

// GroupID identifies a multicast group (used by the core extension; the
// base protocol only routes on it).
type GroupID uint32

// Config holds the protocol constants and firmware costs. Costs are
// charged on the LANai CPU facility, so concurrent work serializes exactly
// as it would on the real 133 MHz processor.
type Config struct {
	// MTU is the maximum packet payload; GM's is 4096 bytes.
	MTU int
	// HeaderBytes is the wire overhead per data packet; AckBytes the wire
	// size of an acknowledgment packet.
	HeaderBytes int
	AckBytes    int
	// SendTokens is the per-port budget of concurrently-outstanding send
	// descriptors; RecvTokensMax bounds posted receive buffers (0 = no cap).
	SendTokens    int
	RecvTokensMax int
	// Window is the per-connection limit of unacknowledged packets.
	Window int
	// RetransmitTimeout is the go-back-N timer. Real GM uses tens of
	// milliseconds; the simulation default is short so loss tests converge
	// quickly, and it stays far above any RTT the fabric produces.
	RetransmitTimeout sim.Time
	// AdaptiveRTO, when set, estimates the retransmission timeout from
	// measured acknowledgment round trips (SRTT + 4*RTTVAR, floored at
	// MinRTO), instead of the fixed RetransmitTimeout. Recovers faster on
	// quiet fabrics and avoids spurious retransmission under load.
	AdaptiveRTO bool
	MinRTO      sim.Time
	// BackoffCap bounds the exponential growth of the retransmission
	// interval: every consecutive timeout on a connection doubles the
	// interval up to RetransmitTimeout*BackoffCap, and any ack progress
	// resets it. Without backoff a saturated receiver melts down under a
	// synchronized retransmit storm. Zero means a cap factor of 64.
	BackoffCap int
	// EnableNacks turns on fast recovery: a receiver that sees a sequence
	// hole sends a negative acknowledgment, and the sender goes back
	// immediately instead of waiting out the timer. NackHoldoff bounds how
	// often a sender honors them (one fast retransmit per holdoff).
	EnableNacks bool
	NackHoldoff sim.Time
	// AckEvery, when > 1, turns on cumulative delayed acknowledgments: a
	// receiver holds its ack until AckEvery in-sequence packets have been
	// accepted or AckDelay has elapsed since the first unacknowledged one,
	// whichever comes first. Duplicates and holes still provoke an
	// immediate (n)ack so recovery latency is unchanged. Zero or one keeps
	// the classic one-ack-per-packet behavior.
	AckEvery int
	// AckDelay bounds how long a coalesced ack may be withheld. Zero means
	// RetransmitTimeout/8, comfortably below any retransmission interval.
	AckDelay sim.Time
	// PiggybackAcks lets a reverse-direction data frame carry the pending
	// cumulative ack in its header (Frame.PiggyAck), suppressing the
	// standalone ack packet entirely. Only does anything when AckEvery > 1
	// leaves acks pending to piggyback.
	PiggybackAcks bool

	// NIC firmware CPU costs.
	SendEventCost  sim.Time // translate a host send event into a send token
	TxSetupCost    sim.Time // queue one staged packet for transmission
	RecvProcCost   sim.Time // process one arriving data packet
	AckProcCost    sim.Time // process one arriving ack
	RetransmitCost sim.Time // per-packet cost of a timeout retransmission

	// Host-side costs.
	HostSendPost sim.Time // build + PIO-post one send event
	HostRecvCost sim.Time // consume one receive event
}

// DefaultConfig returns GM-2/LANai-9.1-era constants, calibrated so the
// small-message one-way latency lands near 7 µs as on the paper's testbed.
func DefaultConfig() Config {
	return Config{
		MTU:               4096,
		HeaderBytes:       24,
		AckBytes:          16,
		SendTokens:        16,
		RecvTokensMax:     0,
		Window:            16,
		RetransmitTimeout: 500 * sim.Microsecond,
		MinRTO:            80 * sim.Microsecond,
		BackoffCap:        64,
		NackHoldoff:       60 * sim.Microsecond,

		SendEventCost:  sim.Micros(1.7),
		TxSetupCost:    sim.Micros(0.3),
		RecvProcCost:   sim.Micros(1.0),
		AckProcCost:    sim.Micros(0.5),
		RetransmitCost: sim.Micros(0.8),

		HostSendPost: sim.Micros(0.4),
		HostRecvCost: sim.Micros(0.3),
	}
}

// AckCoalescing reports whether cumulative delayed acknowledgments are on.
func (c *Config) AckCoalescing() bool { return c.AckEvery > 1 }

// EffectiveAckDelay reports the delayed-ack flush bound: AckDelay when
// set, else RetransmitTimeout/8.
func (c *Config) EffectiveAckDelay() sim.Time {
	if c.AckDelay > 0 {
		return c.AckDelay
	}
	return c.RetransmitTimeout / 8
}

// ackEconomy reports whether any ack-economy feature is active; the fused
// ack dispatch path keys off it.
func (c *Config) ackEconomy() bool { return c.AckCoalescing() || c.PiggybackAcks }

// Packets reports how many MTU-sized packets a message of n bytes needs.
// A zero-byte message still takes one (header-only) packet.
func (c *Config) Packets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + c.MTU - 1) / c.MTU
}

// WireSize reports the on-wire size of a data packet with the given
// payload length.
func (c *Config) WireSize(payload int) int { return c.HeaderBytes + payload }
