package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// queuedChain posts a four-packet multicast at the root of a one-level tree
// over three children and runs until a packet's descriptor is parked behind
// the active replica chain. It takes that descriptor out of the queue and
// hands it back with the root's extension. No child has a receive buffer,
// so nothing comes back to the root: its descriptors are only the four
// staged at the post, and the free list is not drawn on again before a
// retransmission timeout.
func queuedChain(t *testing.T) (*coreRig, *Ext, *gm.Desc) {
	t.Helper()
	r := newCoreRig(t, 4, nil)
	t.Cleanup(r.eng.Kill)
	r.installGroup(t, tree.Flat(0, []fabric.NodeID{0, 1, 2, 3}))
	e := r.exts[0]
	r.eng.Spawn("root", func(p *sim.Proc) { e.Mcast(p, r.ports[0], 1, make([]byte, 4*4096)) })
	s := e.group(1).snd
	for len(s.chains) == 0 {
		if !r.eng.Step() {
			t.Fatal("no replica chain queued behind the first")
		}
	}
	d := s.chains[0]
	s.chains = s.chains[1:]
	if d.Token() == nil || d.Child() != -1 || d.Forwarded() {
		t.Fatalf("the queued descriptor is not a root packet awaiting its chain: token %v, child %d", d.Token(), d.Child())
	}
	return r, e, d
}

// wantFreeListPanic runs the engine and requires the free-list panic.
func wantFreeListPanic(t *testing.T, r *coreRig, what string) {
	t.Helper()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "free list") {
			t.Errorf("%s: recovered %v, want the free-list panic", what, p)
		}
	}()
	r.eng.RunUntil(r.eng.Now() + sim.Millisecond)
}

// A callback that fires for a descriptor nobody holds — a step scheduled
// twice, or a descriptor freed while one of its events is still queued —
// would run some other packet's state. The extension's packets run on gm's
// one descriptor, so a multicast packet freed while its header rewrite is
// still due on the LANai panics instead; the freed descriptor is back on the
// NIC's free list, not lost and not remade.
func TestFreedDescriptorStepPanics(t *testing.T) {
	r, e, d := queuedChain(t)
	free, made := e.Descriptors()
	d.SendAfter(e.cfg.HeaderRewriteCost, 0, e.group(1).children[0])
	d.Done()
	if f, m := e.Descriptors(); f != free+1 || m != made {
		t.Fatalf("free list holds %d of %d descriptors after the free, want %d of %d", f, m, free+1, made)
	}
	wantFreeListPanic(t, r, "header-rewrite step of a freed descriptor")
}

// The transmit side's step: a multicast packet freed while its replica is on
// the wire panics when the transmit engine is done with it.
func TestFreedSendDescriptorStepPanics(t *testing.T) {
	r, e, d := queuedChain(t)
	d.Send(0, e.group(1).children[0])
	d.Done()
	wantFreeListPanic(t, r, "transmit-left step of a freed descriptor")
}

// A NIC's descriptors stay on its free list at their high-water mark, and a
// multicast packet's state on the NIC is gm's descriptor — group, epoch, the
// replica being sent and the set-up cost included — so its size is live
// heap on every NIC: 104 bytes, in the 112-byte class. Once the last replica
// has left, what the packet keeps is its send record's 16-byte mcastSent.
func TestAllocDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(gm.Desc{}); got != 104 {
		t.Errorf("a packet descriptor is %d bytes, was 104", got)
	}
	if got := unsafe.Sizeof(mcastSent{}); got != 16 {
		t.Errorf("a multicast send record's payload is %d bytes, was 16", got)
	}
}
