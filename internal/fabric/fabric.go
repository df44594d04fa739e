// Package fabric is the interconnect abstraction the simulated cluster is
// assembled on: a graph of hosts and switches joined by directed FIFO
// links, with virtual-cut-through packet transport, deterministic routing,
// fault-injection hooks, metrics accounting, and a deterministic
// partitioner for the conservative parallel engine.
//
// The package is topology-agnostic: backends (package myrinet's crossbar
// Clos, package clos's RDMA-era datacenter fabric) build a Network out of
// AddSwitch/AddHost/Connect/SetRoute and provide a Config preset; every
// upper layer — NIC hardware, GM firmware, the multicast extension, the
// chaos campaigns — speaks only the types defined here, so a new fabric is
// a new package, not a rewrite.
//
// The fabric is payload-agnostic: it moves Packet values between network
// interfaces, charging per-hop latency and per-link serialization time, and
// optionally dropping packets (bit errors are rare but nonzero; the
// reliability machinery above exists precisely because the network cannot
// be assumed reliable). Protocol content lives in the upper layers.
package fabric

import "fmt"

// NodeID identifies a host/NIC attachment point on the fabric. The paper's
// deadlock-avoidance rule sorts multicast destinations by this "network ID".
type NodeID int

func (id NodeID) String() string { return fmt.Sprintf("n%d", int(id)) }

// Packet is one network packet in flight. Size is the total wire size in
// bytes (headers included) and determines serialization time; Payload is
// the upper-layer frame and is not interpreted by the fabric. A packet with
// no payload at all — an acknowledgment — has its whole content in Ctl.
//
// TxDone, when non-nil, fires when the packet's tail leaves the source
// NIC's injection link — the moment the transmit DMA engine is done with
// the packet buffer. This is the hardware hook behind GM-2's per-packet
// descriptor callback handlers, which the paper's multisend exploits to
// rewrite the header and queue the same buffer for another destination.
// It fires even if the packet is later lost downstream.
type Packet struct {
	Src, Dst NodeID
	Size     int
	Payload  any
	Ctl      Ctl
	TxDone   func()
}

// Ctl is the whole content of a control packet: one that carries a header
// and no payload, which is every acknowledgment of the protocols above. It
// rides in the Packet by value, so sending one allocates nothing and nobody
// owns it afterwards — every copy of the packet (a traversal record, a
// cross-shard message, an injected duplicate) has its own. Like Payload it is
// the upper layer's: the fabric copies it and never reads it, and the fields
// are the upper layers' common header vocabulary (package gm says which kind
// uses which). Kind zero means the packet is not a control packet.
type Ctl struct {
	Kind             uint8
	SrcPort, DstPort int32
	Group, Epoch     uint32
	Seq, Ack         uint32
	Offset           int32
}
