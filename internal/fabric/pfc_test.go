package fabric

import (
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

const pfcPkt = 1024

// incast drives hosts 1..senders each injecting msgs packets at host 0
// through one crossbar, stepping the engine manually so per-link queue
// occupancy can be sampled between events. It returns host 0's delivery
// times, the maximum backlog observed on any link, and the total pause
// count, and asserts the run ended clean: nothing parked, nothing queued,
// nothing lost.
func incast(t *testing.T, params LinkParams, senders, msgs int) (deliveries []sim.Time, maxQueued int, pauses uint64) {
	t.Helper()
	eng := sim.NewEngine()
	net := SingleSwitch(eng, senders+1, params)
	reg := metrics.New()
	net.SetMetrics(reg)
	net.Iface(0).Deliver = func(*Packet) { deliveries = append(deliveries, eng.Now()) }
	for s := 1; s <= senders; s++ {
		for m := 0; m < msgs; m++ {
			net.Iface(NodeID(s)).Inject(&Packet{Src: NodeID(s), Dst: 0, Size: pfcPkt})
		}
	}
	for eng.Step() {
		for _, l := range net.links {
			if l.queued > maxQueued {
				maxQueued = l.queued
			}
		}
	}
	for _, l := range net.links {
		pauses += l.port.pauses.Value()
		if len(l.waiters) != 0 {
			t.Fatalf("link %s finished with %d parked transits", l, len(l.waiters))
		}
		if l.queued != 0 {
			t.Fatalf("link %s finished with %d queued bytes", l, l.queued)
		}
	}
	snap := reg.Snapshot()
	if dropped := counter(t, snap, Component, metrics.NodeFabric, "dropped"); dropped != 0 {
		t.Fatalf("lossless fabric dropped %d packets", dropped)
	}
	if got, want := int(counter(t, snap, Component, metrics.NodeFabric, "delivered")), senders*msgs; got != want {
		t.Fatalf("delivered %d packets, want %d", got, want)
	}
	return deliveries, maxQueued, pauses
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

// TestPFCBoundsBacklogWithoutLoss is the backpressure contract: under an
// incast that overcommits every queue, pause thresholds bound the per-link
// backlog near PauseBytes and every packet still arrives — congestion
// parks senders instead of dropping.
func TestPFCBoundsBacklogWithoutLoss(t *testing.T) {
	params := LinkParams{
		Latency:     100 * sim.Nanosecond,
		NsPerByte:   1,
		PauseBytes:  3 * pfcPkt,
		ResumeBytes: pfcPkt,
	}
	_, maxQueued, pauses := incast(t, params, 6, 8)
	if pauses == 0 {
		t.Fatal("incast past the pause threshold never paused a sender")
	}
	if maxQueued < params.PauseBytes {
		t.Errorf("max backlog %d never reached the pause threshold %d; workload too light to test anything",
			maxQueued, params.PauseBytes)
	}
	if limit := params.PauseBytes + pfcPkt; maxQueued > limit {
		t.Errorf("max backlog %d exceeds pause threshold + one packet (%d)", maxQueued, limit)
	}
}

// TestPFCIsTimingTransparent pins a subtler invariant: on a loss-free
// fabric, flow control changes who waits where but not when bytes move —
// the link facility serializes reservations in the same FIFO order either
// way, so delivery times with pause thresholds enabled must equal the
// uncontrolled run's exactly. Any divergence means parking reordered or
// delayed a reservation.
func TestPFCIsTimingTransparent(t *testing.T) {
	params := LinkParams{Latency: 100 * sim.Nanosecond, NsPerByte: 1}
	free, freeMax, freePauses := incast(t, params, 6, 8)
	if freePauses != 0 || freeMax != 0 {
		t.Fatalf("PauseBytes=0 run tracked flow control: %d pauses, %d max backlog", freePauses, freeMax)
	}

	params.PauseBytes = 3 * pfcPkt
	params.ResumeBytes = pfcPkt
	pfc, _, _ := incast(t, params, 6, 8)

	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	sort.Slice(pfc, func(i, j int) bool { return pfc[i] < pfc[j] })
	if len(free) != len(pfc) {
		t.Fatalf("delivery counts differ: %d free, %d with PFC", len(free), len(pfc))
	}
	for i := range free {
		if free[i] != pfc[i] {
			t.Fatalf("delivery %d at %v with PFC, %v without", i, pfc[i], free[i])
		}
	}
}

// TestPFCDeterministic runs the paused incast twice and requires identical
// event counts and final clocks — drain and wake events draw their
// tiebreak keys from the link's own domain, so flow control must not
// introduce any scheduling nondeterminism.
func TestPFCDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64, int) {
		eng := sim.NewEngine()
		params := LinkParams{
			Latency:     100 * sim.Nanosecond,
			NsPerByte:   1,
			PauseBytes:  2 * pfcPkt,
			ResumeBytes: pfcPkt,
		}
		net := SingleSwitch(eng, 5, params)
		got := 0
		net.Iface(0).Deliver = func(*Packet) { got++ }
		for s := 1; s < 5; s++ {
			for m := 0; m < 6; m++ {
				net.Iface(NodeID(s)).Inject(&Packet{Src: NodeID(s), Dst: 0, Size: pfcPkt})
			}
		}
		eng.Run()
		return eng.Now(), eng.EventsFired(), got
	}
	aEnd, aEv, aGot := run()
	bEnd, bEv, bGot := run()
	if aEnd != bEnd || aEv != bEv || aGot != bGot {
		t.Fatalf("paused incast not reproducible: (%v, %d events, %d delivered) vs (%v, %d events, %d delivered)",
			aEnd, aEv, aGot, bEnd, bEv, bGot)
	}
	if aGot != 24 {
		t.Fatalf("delivered %d packets, want 24", aGot)
	}
}

// TestPFCPauseTimeAccounted checks the pause_ns metric measures real
// parked time: with a backlog forced well past the threshold the summed
// pause time must be positive and no larger than the run's span times the
// number of pauses.
func TestPFCPauseTimeAccounted(t *testing.T) {
	eng := sim.NewEngine()
	params := LinkParams{
		Latency:     100 * sim.Nanosecond,
		NsPerByte:   1,
		PauseBytes:  2 * pfcPkt,
		ResumeBytes: pfcPkt,
	}
	net := SingleSwitch(eng, 3, params)
	net.Iface(0).Deliver = func(*Packet) {}
	for m := 0; m < 10; m++ {
		net.Iface(1).Inject(&Packet{Src: 1, Dst: 0, Size: pfcPkt})
	}
	eng.Run()
	var pauses uint64
	var pauseNs int64
	for _, l := range net.links {
		pauses += l.port.pauses.Value()
		pauseNs += int64(l.port.pauseNs.Value())
	}
	if pauses == 0 {
		t.Fatal("ten back-to-back packets against a two-packet threshold never paused")
	}
	if pauseNs <= 0 {
		t.Fatalf("%d pauses accounted %d ns of pause time, want > 0", pauses, pauseNs)
	}
	if max := int64(eng.Now()) * int64(pauses); pauseNs > max {
		t.Fatalf("pause time %d ns exceeds run span x pauses (%d)", pauseNs, max)
	}
}
