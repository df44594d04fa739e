package core

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/gm"
)

// A callback that fires for a descriptor nobody holds — a step scheduled
// twice, or a descriptor freed while one of its events is still queued —
// would run some other packet's state. It panics instead.
func TestFreedDescriptorStepPanics(t *testing.T) {
	e := newCoreRig(t, 2, nil).exts[0]
	d := e.newDesc(&gm.Frame{Kind: gm.KindMcastData}, fromWire)
	rx, tx := d.rxFn(), d.txFn()
	d.free()
	if free, made := e.Descriptors(); free != 1 || made != 1 {
		t.Fatalf("free list holds %d of %d descriptors, want 1 of 1", free, made)
	}
	for name, step := range map[string]func(){"rx": rx, "tx": tx} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "free list") {
					t.Errorf("%s step of a freed descriptor: recovered %v, want the free-list panic", name, r)
				}
			}()
			step()
		}()
	}
	// The descriptor is reused, not remade, and its callbacks stay bound.
	if again := e.newDesc(&gm.Frame{}, fromRoot); again != d || again.rx == nil || again.tx == nil {
		t.Fatal("the freed descriptor was not the one handed out next")
	}
}

func TestFreedSendDescriptorStepPanics(t *testing.T) {
	e := newCoreRig(t, 2, nil).exts[0]
	tok := e.newToken()
	tok.port = e.nic.OpenPort(9)
	step := tok.step
	tok.done()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "free list") {
			t.Errorf("step of a freed send descriptor: recovered %v, want the free-list panic", r)
		}
	}()
	step()
}

// A NIC's descriptors stay on its free list at their high-water mark, so the
// descriptor's size is live heap on every NIC: 104 bytes, in the 112-byte
// class — 16 more than before a descriptor carried the packet's source and,
// for an ack, the three header values that used to sit in a 112-byte Frame.
func TestAllocDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(desc{}); got != 104 {
		t.Errorf("a packet descriptor is %d bytes, was 104", got)
	}
}

// The multicast block is allocated once per NIC, so its size is heap on every
// node: twenty-three counters and two histograms, 1288 bytes in the 1408
// class. A new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 1288 {
		t.Errorf("the core block is %d bytes, was 1288", got)
	}
}
