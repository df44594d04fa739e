package cluster_test

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestSentinelsReachCallers checks the fabric sentinels flow out of the
// code paths that raise them, matchable by errors.Is.
func TestSentinelsReachCallers(t *testing.T) {
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	if err := net.SetLossRate(1.5); !errors.Is(err, fabric.ErrBadLossRate) {
		t.Errorf("SetLossRate(1.5) = %v, want ErrBadLossRate", err)
	}
	if err := net.SetLossRate(0.5); !errors.Is(err, fabric.ErrLossRateWithoutRNG) {
		t.Errorf("SetLossRate without RNG = %v, want ErrLossRateWithoutRNG", err)
	}

	panics := func(build func()) (err error) {
		defer func() {
			r := recover()
			e, ok := r.(error)
			if !ok {
				t.Fatalf("panicked with non-error %v", r)
			}
			err = e
		}()
		build()
		return nil
	}
	if err := panics(func() { cluster.New(8, cluster.WithShards(2), cluster.WithLossRate(0.01)) }); !errors.Is(err, fabric.ErrShardsWithLossRate) {
		t.Errorf("sharded lossy cluster panicked with %v, want fabric.ErrShardsWithLossRate", err)
	}
}
