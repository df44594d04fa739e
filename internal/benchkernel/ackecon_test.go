package benchkernel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestAckEconomyCutsStormAckTraffic pins the headline claim: with
// coalescing, piggybacking and tree aggregation on, a 2048-host multicast
// storm puts at least 4x fewer ack packets on the wire than the default
// per-packet discipline, while the final virtual clock does not regress.
func TestAckEconomyCutsStormAckTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-host storm is too slow for -short")
	}
	// 16-packet messages; the binomial root paces packets ~190µs apart at
	// this scale, so the ack delay must span several packet arrivals for
	// count-driven coalescing to engage (the retransmit timers budget for
	// the hold, see gm.Window.rto).
	const nodes, msgs, size = 2048, 3, 65536
	baseVirt, base := MulticastStormCounters(fabric.Config{}, nodes, msgs, size)
	econVirt, econ := MulticastStormCounters(fabric.Config{}, nodes, msgs, size,
		cluster.WithAckEconomy(8),
		cluster.WithMutate(func(c *cluster.Config) { c.GM.AckDelay = 2 * sim.Millisecond }))

	baseAcks := base.CounterSum("core", "mcast_acks_sent") + base.CounterSum("gm", "acks_sent")
	econAcks := econ.CounterSum("core", "mcast_acks_sent") + econ.CounterSum("gm", "acks_sent")
	if baseAcks == 0 {
		t.Fatal("baseline storm recorded no ack packets")
	}
	if econAcks*4 > baseAcks {
		t.Fatalf("ack economy sent %d ack packets vs %d baseline — under the 4x reduction bar",
			econAcks, baseAcks)
	}
	// Both runs moved the same payload bytes; receivers must have accepted
	// the identical packet count.
	if b, e := base.CounterSum("core", "mcast_received"), econ.CounterSum("core", "mcast_received"); b != e {
		t.Fatalf("receive counts diverged: %d baseline vs %d economy", b, e)
	}
	// Coalescing trades per-packet acks for bounded delay; the storm as a
	// whole must not get slower (aggregation removes the root's ack
	// implosion, which is what the paper's NIC-based scheme is about).
	if econVirt > baseVirt+baseVirt/10 {
		t.Fatalf("economy storm finished at %v, >10%% slower than baseline %v", econVirt, baseVirt)
	}
	if econ.CounterSum("core", "mcast_acks_aggregated") == 0 {
		t.Fatal("interior NICs aggregated no acks")
	}
	if econ.CounterSum("gm", "retransmits")+econ.CounterSum("core", "retransmits") != 0 {
		t.Fatal("ack economy caused spurious retransmits in a clean storm")
	}
}
