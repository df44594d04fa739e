//go:build !race

package fabric

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// Counts, not time (the race detector allocates on its own, so this is left
// out of -race builds).

// A warm Inject → Deliver round trip allocates nothing: the packet is built
// on the caller's stack and copied into a pooled traversal record, and the
// pointer Deliver sees is into that record. That holds for a packet carrying
// the upper layer's frame and for a control packet, whose whole content is the
// header inside the Packet value: an acknowledgment costs the heap nothing on
// either NIC.
func TestAllocInjectDeliverIsFree(t *testing.T) {
	payload, ctl := any("frame"), Ctl{Kind: 3, SrcPort: 1, DstPort: 2, Group: 5, Epoch: 6, Seq: 7, Ack: 8, Offset: -1}
	for _, c := range []struct {
		name string
		pkt  Packet
	}{
		{"frame", Packet{Src: 0, Dst: 1, Size: 256, Payload: payload, TxDone: func() {}}},
		{"control", Packet{Src: 0, Dst: 1, Size: 16, Ctl: ctl}},
	} {
		eng := sim.NewEngine()
		n := SingleSwitch(eng, 2, DefaultLinkParams())
		got, want := 0, c.pkt
		n.Iface(1).Deliver = func(p *Packet) {
			if p.Src == want.Src && p.Size == want.Size && p.Payload == want.Payload && p.Ctl == want.Ctl {
				got++
			}
		}
		trip := func() {
			pkt := c.pkt
			n.Iface(0).Inject(&pkt)
			eng.Run()
		}
		trip() // the event arena and the transit pool exist now
		if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
			t.Errorf("%s: a warm Inject → Deliver round trip allocates %.1f objects, want 0", c.name, allocs)
		}
		if got != 202 {
			t.Errorf("%s: delivered %d intact packets, want 202", c.name, got)
		}
	}
}

// The packet rides by value in every pooled traversal record and cross-shard
// message, so its size is live heap: 48 bytes of routing, payload and callback
// plus the 32-byte control header. The record adds the route, MaxHops link
// numbers in 24 bytes. A field added to either shows here before it shows as
// a size-class jump of the record (160 is a class; 161 is 176).
func TestAllocPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 80 {
		t.Errorf("a Packet is %d bytes, was 80", got)
	}
	if got := unsafe.Sizeof(transit{}); got != 160 {
		t.Errorf("a traversal record is %d bytes, was 160", got)
	}
}

// A Link is 192 B, its sim.Facility (32 B) held inside, and a cable is the
// two directions in one 384 B allocation (ConnectWith), exactly a size
// class; every host costs one cable and every trunk another. A field added
// to either shows here, and one more word would put a cable in the 416 B
// class.
func TestAllocLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got != 192 {
		t.Errorf("a Link is %d bytes, was 192", got)
	}
}

// One block per host and one per switch, so their sizes are heap at every
// vertex: eight counters for a host's two links, four for a switch's output
// ports. The fabric-wide and trunk blocks hold no counters of their own:
// each shard has a copy of both, seven counters. A new instrument shows
// here.
func TestAllocInstrumentsSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"fabric-wide", unsafe.Sizeof(instruments{}), 24},
		{"per-shard copy", unsafe.Sizeof(shardInstruments{}), 56},
		{"host", unsafe.Sizeof(hostInstruments{}), 64},
		{"switch", unsafe.Sizeof(switchInstruments{}), 32},
		{"trunk", unsafe.Sizeof(trunkInstruments{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("the %s block is %d bytes, was %d", c.name, c.got, c.want)
		}
	}
}
