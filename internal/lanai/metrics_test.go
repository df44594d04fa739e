package lanai

import (
	"testing"
	"unsafe"
)

// The hardware block is allocated once per NIC, so its size is heap on every
// node: six counters and the backlog gauge, and a gauge and two counters for
// each buffer pool — the 128-byte class exactly. A new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 128 {
		t.Errorf("the lanai block is %d bytes, was 128", got)
	}
}
