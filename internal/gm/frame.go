package gm

import (
	"fmt"

	"repro/internal/fabric"
)

// Kind discriminates wire frame types.
type Kind uint8

const (
	// KindData is a unicast data packet (one MTU-sized chunk of a message).
	KindData Kind = iota
	// KindAck is a cumulative unicast acknowledgment.
	KindAck
	// KindMcastData is a multicast data packet, handled by the core
	// extension's group machinery.
	KindMcastData
	// KindMcastAck is a per-group cumulative acknowledgment from a child
	// to its parent in the multicast tree.
	KindMcastAck
	// KindNack is a negative acknowledgment: the receiver saw a sequence
	// hole and asks the sender to go back immediately instead of waiting
	// for the timeout (optional fast recovery, Config.EnableNacks).
	KindNack
	// KindMcastNack is the per-group equivalent sent to the tree parent.
	KindMcastNack
	// KindBarrier is a NIC-level barrier round message (core extension):
	// Seq is the barrier instance, Offset the dissemination round.
	KindBarrier
	// KindBarrierAck acknowledges one barrier round message.
	KindBarrierAck
	// KindReduce carries a combined reduction vector up the tree
	// (core extension); KindReduceAck acknowledges it.
	KindReduce
	KindReduceAck
	// KindDirected is a remote-DMA put into a registered region
	// (gm_directed_send); MsgID carries the region id, Offset the write
	// offset. Same reliability as KindData, but no receive token and no
	// receive event.
	KindDirected
	// KindGather carries one chunk of a concatenate-and-forward allgather
	// batch up the tree (internal/coll): Seq is the instance, Offset the
	// byte offset within the batch, MsgLen the batch total. KindGatherAck
	// acknowledges one chunk.
	KindGather
	KindGatherAck
	// KindRing carries one member's vector one hop around the ring in the
	// ring-allgather variant: Seq is the instance, Offset the originating
	// member index. KindRingAck acknowledges it.
	KindRing
	KindRingAck
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindMcastData:
		return "MCAST"
	case KindMcastAck:
		return "MACK"
	case KindNack:
		return "NACK"
	case KindMcastNack:
		return "MNACK"
	case KindBarrier:
		return "BARR"
	case KindBarrierAck:
		return "BARRACK"
	case KindReduce:
		return "RED"
	case KindReduceAck:
		return "REDACK"
	case KindDirected:
		return "DSEND"
	case KindGather:
		return "GATH"
	case KindGatherAck:
		return "GATHACK"
	case KindRing:
		return "RING"
	case KindRingAck:
		return "RINGACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Frame is the protocol header plus payload carried inside a
// fabric.Packet. One frame is one wire packet.
//
// A Frame is immutable once injected except through Clone — the NIC-based
// multisend "changes the packet header and queues it for transmission
// again", which Clone models without aliasing the in-flight copy.
type Frame struct {
	Kind             Kind
	SrcNode, DstNode fabric.NodeID
	SrcPort, DstPort PortID

	// Seq is the connection sequence number (per source port → destination
	// port pair) for unicast, or the group sequence number for multicast.
	Seq uint32
	// Ack is the cumulative acknowledged sequence number (KindAck/McastAck).
	Ack uint32

	// Message framing: a message is MsgLen bytes split into MTU chunks;
	// this frame carries Payload at Offset.
	MsgID  uint64
	MsgLen int
	Offset int

	// Piggy marks a data frame that also carries a cumulative
	// acknowledgment for the reverse direction of its connection in
	// PiggyAck (Config.PiggybackAcks). The value rides in reserved header
	// space, so the wire size is unchanged; a lost frame loses the
	// piggybacked ack with it, and the delayed-ack machinery recovers
	// through the usual duplicate re-ack.
	Piggy    bool
	PiggyAck uint32

	// Group tags multicast traffic. Epoch is the group-table epoch the
	// frame was emitted under (core extension's dynamic membership):
	// multicast data and acks carry it so a stale-epoch frame arriving at
	// a departed or not-yet-joined NIC is rejected instead of delivered.
	// Static groups never leave epoch 0.
	Group GroupID
	Epoch uint32

	Payload []byte
}

// Clone returns a copy of f sharing the payload bytes (the NIC replicates
// the header, not the data, when multisending).
func (f *Frame) Clone() *Frame {
	g := *f
	return &g
}

// packet wraps f for the fabric, computing its wire size. The packet is a
// value: the fabric copies it at injection, so it never reaches the heap.
func (f *Frame) packet(cfg *Config, txDone func()) fabric.Packet {
	size := cfg.WireSize(len(f.Payload))
	switch f.Kind {
	case KindAck, KindMcastAck, KindNack, KindMcastNack, KindBarrier, KindBarrierAck, KindReduceAck, KindGatherAck, KindRingAck:
		size = cfg.AckBytes
	}
	return fabric.Packet{
		Src:     f.SrcNode,
		Dst:     f.DstNode,
		Size:    size,
		Payload: f,
		TxDone:  txDone,
	}
}

func (f *Frame) String() string {
	s := fmt.Sprintf("%s %v:%d->%v:%d seq=%d ack=%d msg=%d off=%d/%d grp=%d len=%d",
		f.Kind, f.SrcNode, f.SrcPort, f.DstNode, f.DstPort,
		f.Seq, f.Ack, f.MsgID, f.Offset, f.MsgLen, f.Group, len(f.Payload))
	if f.Epoch != 0 {
		s += fmt.Sprintf(" ep=%d", f.Epoch)
	}
	if f.Piggy {
		s += fmt.Sprintf(" pack=%d", f.PiggyAck)
	}
	return s
}
