package sim_test

// Event-kernel micro-benchmarks. The bodies live in internal/benchkernel
// so cmd/benchjson records the same workloads into BENCH_sim.json.
//
//	go test ./internal/sim -bench . -benchmem

import (
	"testing"

	"repro/internal/benchkernel"
)

func BenchmarkSchedule(b *testing.B)         { benchkernel.Schedule(b) }
func BenchmarkCancelReschedule(b *testing.B) { benchkernel.CancelReschedule(b) }
func BenchmarkPacketStorm(b *testing.B)      { benchkernel.PacketStorm(b) }
