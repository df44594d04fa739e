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
	// The collective kinds (internal/coll) travel on one reliable stream
	// per collective group entry and peer: Seq numbers the stream, MsgID is
	// the collective instance. Each is directly followed by its ack kind,
	// a cumulative (n)ack of the stream.
	//
	// KindBarrier is a NIC-level barrier round message: Offset is the
	// dissemination round or the tree sweep's direction.
	KindBarrier
	KindBarrierAck
	// KindReduce carries a combined reduction vector up the tree: Offset is
	// the operator.
	KindReduce
	KindReduceAck
	// KindDirected is a remote-DMA put into a registered region
	// (gm_directed_send); MsgID carries the region id, Offset the write
	// offset. Same reliability as KindData, but no receive token and no
	// receive event.
	KindDirected
	// KindGather carries one chunk of a concatenate-and-forward allgather
	// batch up the tree: Offset is the byte offset within the batch, MsgLen
	// the batch total.
	KindGather
	KindGatherAck
	// KindRing carries one member's vector one hop around the ring in the
	// ring-allgather variant: Offset is the originating member index.
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
// A Frame says what the packet is, not where it is going: source and
// destination node belong to the fabric.Packet that carries it (NIC.Inject
// takes the destination, the receive path hands on the packet's source). So
// a frame is written once, by the NIC that makes it, before its first
// Inject, and is read-only from then on. That is what lets one multicast
// frame serve its whole tree: the paper's multisend and forwarding "change
// the packet header and queue it for transmission again", and the only
// header fields that differ per hop are the two the frame does not have. The
// root, every forwarder and every leaf hold the same *Frame, the send
// windows keep it for retransmission, and NICs on different shards read it at
// once; under -race a checksum taken at the first Inject is verified at every
// delivery (seal_race.go). Acknowledgments are not frames at all: see Ctl.
type Frame struct {
	Kind             Kind
	SrcPort, DstPort PortID

	// Seq is the connection sequence number (per source port → destination
	// port pair) for unicast, the group sequence number for multicast, or
	// the collective group entry's stream number to one peer.
	Seq uint32

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

	guard frameSeal // -race builds: the header checksum; otherwise empty

	Payload []byte
}

// wireSize reports the frame's size on the wire.
func (f *Frame) wireSize(cfg *Config) int {
	if f.Kind == KindBarrier {
		return cfg.AckBytes // a header and no payload, like an acknowledgment
	}
	return cfg.WireSize(len(f.Payload))
}

// Wire formats f as the packet src sent to dst carrying it — a trace line.
func (f *Frame) Wire(src, dst fabric.NodeID) string { return f.wire(src, dst, 0) }

// ctlWire is Wire for a control packet: the same line, its header's fields
// where a frame's would be and the one a frame lacks, the cumulative ack.
func ctlWire(c *fabric.Ctl, src, dst fabric.NodeID) string {
	hdr := Frame{
		Kind: Kind(c.Kind), SrcPort: PortID(c.SrcPort), DstPort: PortID(c.DstPort),
		Seq: c.Seq, Offset: int(c.Offset), Group: GroupID(c.Group), Epoch: c.Epoch,
	}
	return hdr.wire(src, dst, c.Ack)
}

func (f *Frame) wire(src, dst fabric.NodeID, ack uint32) string {
	s := fmt.Sprintf("%s %v:%d->%v:%d seq=%d ack=%d msg=%d off=%d/%d grp=%d len=%d",
		f.Kind, src, f.SrcPort, dst, f.DstPort,
		f.Seq, ack, f.MsgID, f.Offset, f.MsgLen, f.Group, len(f.Payload))
	if f.Epoch != 0 {
		s += fmt.Sprintf(" ep=%d", f.Epoch)
	}
	if f.Piggy {
		s += fmt.Sprintf(" pack=%d", f.PiggyAck)
	}
	return s
}

// KindOf reports the protocol kind of a packet on the wire, whether it
// carries a Frame or is a control packet with its header in the packet
// itself; false for a packet that is neither.
func KindOf(p *fabric.Packet) (Kind, bool) {
	if fr, ok := p.Payload.(*Frame); ok {
		return fr.Kind, true
	}
	if p.Payload == nil && p.Ctl.Kind != 0 {
		return Kind(p.Ctl.Kind), true
	}
	return 0, false
}
