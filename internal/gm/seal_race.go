//go:build race

package gm

import (
	"fmt"

	"repro/internal/fabric"
)

// frameSeal guards the rule that a frame is read-only once it has been
// injected: one multicast frame is held by every NIC of its tree, so a
// write on one of them would change what the others (on other shards, at
// the same time) forward, deliver and retransmit. The first Inject records a
// checksum of the header; every later Inject and every delivery verifies it,
// so the -race test and smoke runs fail at the first NIC that sees the
// damage instead of computing on a frame that changed under them.
//
// It also marks a frame its last holder has released (Frame.Release): the
// frame is scrubbed to kindFreed with freed set, so a holder that kept it
// without a hold of its own — and delivers it, re-injects it or holds it
// again — panics at that NIC instead of reading whatever packet the pool
// gives the frame to next.
type frameSeal struct {
	sum    uint64
	sealed bool
	freed  bool
}

// kindFreed is the Kind of a released frame, one no NIC handles.
const kindFreed Kind = 0xff

// scrub blanks a released frame but for its pool and marks it freed.
func (f *Frame) scrub() { *f = Frame{Kind: kindFreed, pool: f.pool, guard: frameSeal{freed: true}} }

// unscrub blanks a frame NewFrame takes from its pool.
func (f *Frame) unscrub() { *f = Frame{pool: f.pool} }

// checkLive panics if f has been released since NewFrame gave it out.
func (f *Frame) checkLive() {
	if f.guard.freed {
		panic("gm: hold of a released frame")
	}
}

// seal records f's header checksum on the frame's first Inject and verifies
// it on every later one (at is the NIC doing it). Only that first Inject
// writes, on the NIC that made the frame, before any other NIC can hold it.
func (f *Frame) seal(at fabric.NodeID) {
	if f.guard.sealed {
		f.verify(at)
		return
	}
	f.guard = frameSeal{sum: f.headerSum(), sealed: true}
}

// verify panics if f has been written since it was sealed, or released;
// every delivery runs it.
func (f *Frame) verify(at fabric.NodeID) {
	if f.guard.freed {
		panic(fmt.Sprintf("gm: released frame delivered at %v", at))
	}
	if f.guard.sealed && f.headerSum() != f.guard.sum {
		panic(fmt.Sprintf("gm: frame written after it was injected, seen at %v: now %s", at, f.Wire(at, at)))
	}
}

// headerSum is an FNV-1a hash over the header fields and the payload's
// extent (the payload bytes are the host's registered memory, guarded by
// poison).
func (f *Frame) headerSum() uint64 {
	piggy := uint64(0)
	if f.Piggy {
		piggy = 1
	}
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{
		uint64(f.Kind), uint64(f.SrcPort), uint64(f.DstPort), uint64(f.Seq),
		f.MsgID, uint64(f.MsgLen), uint64(f.Offset), piggy, uint64(f.PiggyAck),
		uint64(f.Group), uint64(f.Epoch), uint64(len(f.Payload)),
	} {
		h = (h ^ v) * 1099511628211
	}
	return h
}
