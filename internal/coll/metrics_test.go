package coll

import (
	"testing"
	"unsafe"
)

// The collective block is allocated once per NIC, so its size is heap on
// every node: fourteen counters and one histogram. A new instrument shows
// here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 664 {
		t.Errorf("the coll block is %d bytes, was 664", got)
	}
}
