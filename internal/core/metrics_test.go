package core

import (
	"testing"
	"unsafe"
)

// The multicast block is allocated once per NIC, so its size is heap on every
// node: twenty-three counters and two histograms, 1288 bytes in the 1408
// class. A new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 1288 {
		t.Errorf("the core block is %d bytes, was 1288", got)
	}
}
