//go:build !race

package harness

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// Counts, not time (and not under the race detector, which allocates on its
// own).

// bytesPerIteration reports what one more iteration of run allocates, early
// in a run and late in it: differences between runs of 8, 24 and 40
// iterations, so building the cluster and warming its ports and queues
// cancels out. It fails the test if the late figure is above the early one —
// a receive path that recycles costs the same however long it has run. Above
// means by more than a tenth plus 1 KB: the run's own sample slices grow by
// doubling, and the doubling that falls between iterations 24 and 40 reads as
// 0.7 KB per iteration there, which is more than an iteration of the
// NIC-based multicast allocates otherwise. Each run's cost is the least of
// three, so an allocation elsewhere in the process (the test runner, the
// runtime) cannot read as growth.
func bytesPerIteration(t *testing.T, run func(o Options)) float64 {
	t.Helper()
	cost := func(iters int) float64 {
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(Options{Warmup: 2, Iters: iters, Workers: 1})
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return least
	}
	c8, c24, c40 := cost(8), cost(24), cost(40)
	early, late := (c24-c8)/16, (c40-c24)/16
	if late > 1.1*early+1024 {
		t.Errorf("an iteration allocates %.0f B early in the run and %.0f B late: the cost grows with Iters", early, late)
	}
	return late
}

// A 16 KB NIC-based multicast to 15 receivers used to allocate 15 landing
// buffers per iteration (≈ 280 KB with the frames); a released buffer is
// reused, so what is left is the root's four data frames (one per packet for
// the whole tree, 0.6 KB per iteration with the processes' wait-queue slots).
func TestAllocMulticastNBReusesReceiveBuffers(t *testing.T) {
	const nodes, size = 16, 16384
	per := bytesPerIteration(t, func(o Options) { o.multicastNBOnce(nodes, size, nodes-1) })
	t.Logf("MulticastNB(%d, %d): %.0f B per iteration", nodes, size, per)
	if per > 4*size {
		t.Errorf("one iteration allocates %.0f B, over %d: the %d receivers are not reusing their %d-byte buffers",
			per, 4*size, nodes-1, size)
	}
}

// A 4-byte MPI_Bcast used to cost every rank an EagerMax-sized bounce buffer
// per message (≈ 16 KB × 15 per iteration): the buffer is the message's
// size now, and replenish hands it back.
func TestAllocMPIBcastSmallMessageIsSmall(t *testing.T) {
	const nodes, size = 16, 4
	for _, nb := range []bool{true, false} {
		per := bytesPerIteration(t, func(o Options) { o.mpiBcastOnce(nodes, size, nb, nodes-1) })
		t.Logf("MPIBcast(%d, %d, nb=%v): %.0f B per iteration", nodes, size, nb, per)
		if per > 2*mpi.EagerMax {
			t.Errorf("nb=%v: one iteration allocates %.0f B, over two eager buffers of %d: a %d-byte message still costs a bounce buffer",
				nb, per, mpi.EagerMax, size)
		}
	}
}

// An MPI_Bcast used to cost every receiver a fresh copy of the message and
// every sender a fresh envelope per send (8–497 KB per iteration over 16
// ranks). Receivers copy into the buffer they passed and envelopes are
// encoded into rank-owned buffers, so what an iteration allocates is its
// frames, at any size and on both paths.
func TestAllocMPIBcastCopiesIntoCallerBuffers(t *testing.T) {
	const nodes, limit = 16, 8 << 10
	for _, size := range []int{512, 4096, mpi.EagerMax} {
		for _, nb := range []bool{true, false} {
			per := bytesPerIteration(t, func(o Options) { o.mpiBcastOnce(nodes, size, nb, nodes-1) })
			t.Logf("MPIBcast(%d, %d, nb=%v): %.0f B per iteration", nodes, size, nb, per)
			if per > limit {
				t.Errorf("size %d nb=%v: one iteration allocates %.0f B, over %d: a copy-out or envelope per message is back",
					size, nb, per, limit)
			}
		}
	}
}

// A 16 KB host-based multicast over 16 nodes has seven forwarders, which
// cannot release a message while their sends read it: each used to take a
// fresh 16 KB landing buffer per iteration (≈ 115 KB in all). They hold what
// they forwarded until their send tokens are all back and release it then, so
// an iteration costs the frames of its unicasts.
func TestAllocMulticastHBReleasesForwardedBuffers(t *testing.T) {
	const nodes, size = 16, 16384
	per := bytesPerIteration(t, func(o Options) { o.multicastHBOnce(nodes, size, nodes-1) })
	t.Logf("MulticastHB(%d, %d): %.0f B per iteration", nodes, size, per)
	if per > 2*size {
		t.Errorf("one iteration allocates %.0f B, over %d: the forwarders are not reusing their %d-byte buffers",
			per, 2*size, size)
	}
}
