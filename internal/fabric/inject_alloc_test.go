//go:build !race

package fabric_test

import (
	"runtime"
	"testing"
)

// Once the transit pool and the event arena are warm, the first packet
// between a pair of hosts allocates nothing: a route is computed into the
// packet's transit record, so no state is kept per pair. The pool warms on
// pairs half the fabric apart; every other ordered pair is then measured.
func TestAllocInjectDistinctPairs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newPairFabric(1)
	hosts := f.net.Hosts()
	f.wave(hosts/2, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for offset := 1; offset < hosts; offset++ {
		if offset != hosts/2 {
			f.wave(offset, 1)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d packets on pairs never used before made %d allocations, want 0", (hosts-2)*hosts, n)
	}
	if want := (4 + hosts - 2) * hosts; f.delivered != want {
		t.Errorf("delivered %d packets, want %d", f.delivered, want)
	}
}
