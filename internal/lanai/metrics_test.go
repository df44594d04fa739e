package lanai

import (
	"testing"
	"unsafe"

	"repro/internal/metrics"
)

// The hardware block is allocated once per NIC, so its size is heap on every
// node: six counters and the backlog gauge, and a gauge and two counters for
// each buffer pool — the 128-byte class exactly. A new instrument shows here.
func TestAllocInstrumentsSize(t *testing.T) {
	if got := unsafe.Sizeof(instruments{}); got != 128 {
		t.Errorf("the lanai block is %d bytes, was 128", got)
	}
}

// counter reads one counter out of a snapshot. A key no instrument reports
// fails the test, so a misspelled name cannot pass as a zero count.
func counter(t testing.TB, s metrics.Snapshot, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}
