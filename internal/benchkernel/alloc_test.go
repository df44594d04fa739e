//go:build !race

package benchkernel

import "testing"

// The fabric hot path — inject, two hops, deliver — stays allocation-free
// with the packet riding in its transit by value.
func TestAllocPacketStormIsFree(t *testing.T) {
	if allocs := testing.Benchmark(PacketStorm).AllocsPerOp(); allocs != 0 {
		t.Errorf("PacketStorm allocates %d objects per wave, want 0", allocs)
	}
}
