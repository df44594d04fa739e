package core

import (
	"testing"
	"unsafe"
)

// The multicast block is allocated once per NIC, so its size is heap on every
// node: twenty-three counters and two histograms' 40-byte headers (their
// buckets come with their first observation), 264 bytes in the 288 class. A
// new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 264 {
		t.Errorf("the core block is %d bytes, was 264", got)
	}
}
