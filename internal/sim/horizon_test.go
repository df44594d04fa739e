package sim_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// A 1 KB multicast packet arrives one link latency plus its serialization
// after it is sent: that arrival must land in the ring, not in the far
// heap, or the storm workload pays a far-heap push and pop per packet.
func TestRingHorizonCoversPacketArrival(t *testing.T) {
	lp, gmc := fabric.DefaultLinkParams(), gm.DefaultConfig()
	arrival := lp.Latency + lp.SerializationTime(gmc.WireSize(1024))
	if sim.RingHorizon < arrival {
		t.Fatalf("the ring's horizon is %v, short of a 1 KB packet's arrival %v later", sim.RingHorizon, arrival)
	}
}
