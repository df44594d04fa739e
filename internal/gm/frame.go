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
//
// Frames are recycled, as GM-2's firmware recycles its packet descriptors
// once a packet's last replica has left: NIC.NewFrame takes one from the
// pool of the NIC's engine (the pool its spare host buffers share), and the
// frame counts its holders. They are exactly
//   - each packet descriptor working on it (Desc), from newDesc to free;
//   - each packet in flight, from NIC.Inject until the receiving NIC's
//     dispatch returns or the fabric drops it (fabric.Shared);
//   - each send record, from Window.File until it retires;
//   - what keeps it past an event of its own: the store-and-forward
//     ablation's list (package core) and a collective's receive processing
//     waiting for the LANai (package coll).
//
// Each takes a hold (Hold) and gives it up (Release). The last release
// clears the frame, Payload included, since a data frame's payload is the
// sender's host memory, which a pooled frame must not keep alive, and files
// it in the pool for a later packet. A holder that forgets a frame without
// releasing it (a packet a paused NIC discards, a window abandoned with its
// group) leaves it to the garbage collector: a missed release costs an
// allocation, never correctness. An extra release is a bug: a release with
// no holder left panics, and under -race a released frame is marked, so a
// delivery or a new hold of it panics too.
//
// The count is a plain integer, which one engine alone may write. Where the
// fabric copies a packet — a duplicate (fabric.Network.DupFn), or a hand-off
// to another shard's engine — it pins the frame (fabric.Shared): from then
// on the frame counts nothing and is never recycled, so NICs on two shards
// may hold it at once without a lock or an atomic.
type Frame struct {
	Kind Kind
	// Piggy marks a data frame that also carries a cumulative
	// acknowledgment for the reverse direction of its connection in
	// PiggyAck (Config.PiggybackAcks). The value rides in reserved header
	// space, so the wire size is unchanged; a lost frame loses the
	// piggybacked ack with it, and the delayed-ack machinery recovers
	// through the usual duplicate re-ack.
	Piggy bool

	pinned bool  // copied by the fabric: counts no holders, never recycled
	holds  int32 // holders (see above); only the frame's engine writes it

	SrcPort, DstPort PortID

	// Seq is the connection sequence number (per source port → destination
	// port pair) for unicast, the group sequence number for multicast, or
	// the collective group entry's stream number to one peer.
	Seq      uint32
	PiggyAck uint32

	// Message framing: a message is MsgLen bytes split into MTU chunks;
	// this frame carries Payload at Offset.
	MsgID  uint64
	MsgLen int
	Offset int

	// Group tags multicast traffic. Epoch is the group-table epoch the
	// frame was emitted under (core extension's dynamic membership):
	// multicast data and acks carry it so a stale-epoch frame arriving at
	// a departed or not-yet-joined NIC is rejected instead of delivered.
	// Static groups never leave epoch 0.
	Group GroupID
	Epoch uint32

	pool  *spares   // where the last release files it; nil for a frame made by hand
	guard frameSeal // -race builds: the header checksum and the released mark; otherwise empty

	Payload []byte
}

// NewFrame returns a blank frame with no holders: one a last release filed
// in the NIC's pool (shared by the NICs of its engine, ShareSpares), or a
// new one.
func (n *NIC) NewFrame() *Frame {
	s := n.pool()
	k := len(s.frames)
	if k == 0 {
		s.framesMade++
		return &Frame{pool: s}
	}
	f := s.frames[k-1]
	s.frames[k-1] = nil
	s.frames = s.frames[:k-1]
	f.unscrub()
	return f
}

// Frames reports how many frames sit in the pool the NIC takes them from,
// and how many that pool has made and not dropped: equal once nothing holds
// a frame, whatever the packets were. NICs sharing a pool (ShareSpares)
// report the same.
func (n *NIC) Frames() (free, made int) {
	if n.spares == nil {
		return 0, 0
	}
	return len(n.spares.frames), n.spares.framesMade
}

// Hold adds a holder of the frame. A pinned frame counts none.
func (f *Frame) Hold() {
	f.checkLive()
	if !f.pinned {
		f.holds++
	}
}

// Release ends one holder's use of the frame. The last clears the frame and
// files it in its pool; a frame made by hand has none and is left to the
// garbage collector. Releasing a frame nobody holds panics.
func (f *Frame) Release() {
	if f.pinned {
		return
	}
	if f.holds--; f.holds <= 0 {
		f.recycle()
	}
}

// recycle files a frame its last holder has released in its pool; out of
// line, so that Release inlines.
func (f *Frame) recycle() {
	if f.holds < 0 {
		panic(fmt.Sprintf("gm: frame released with no holder left: %s", f.Wire(-1, -1)))
	}
	if f.pool != nil {
		f.scrub()
		f.pool.frames = append(f.pool.frames, f)
	}
}

// Pin stops the frame's count for good (fabric.Shared): the fabric has
// copied a packet carrying it, so it has a holder it cannot count, perhaps
// on another engine. Only the first pin writes, while the frame is still on
// one engine.
func (f *Frame) Pin() {
	if !f.pinned {
		f.pinned = true
	}
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
