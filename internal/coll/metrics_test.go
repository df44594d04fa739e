package coll

import (
	"testing"
	"unsafe"
)

// The collective block is allocated once per NIC, so its size is heap on
// every node: fifteen counters and one histogram's 48-byte header (its
// buckets come with its first observation), 168 bytes in the 176 class. A
// new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 168 {
		t.Errorf("the coll block is %d bytes, was 168", got)
	}
}
