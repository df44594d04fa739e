package core

import (
	"testing"
	"unsafe"
)

// The multicast block is allocated once per NIC, so its size is heap on every
// node: twenty-three counters and two histograms' 48-byte headers (their
// buckets come with their first observation), 280 bytes in the 288 class. A
// new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 280 {
		t.Errorf("the core block is %d bytes, was 280", got)
	}
}
