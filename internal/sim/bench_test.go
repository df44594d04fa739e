package sim_test

// Event-kernel micro-benchmarks. The bodies live in internal/benchkernel
// so cmd/benchjson records the same workloads into BENCH_sim.json.
//
//	go test ./internal/sim -bench . -benchmem

import (
	"testing"

	"repro/internal/benchkernel"
	"repro/internal/sim"
)

func BenchmarkSchedule(b *testing.B)         { benchkernel.Schedule(b) }
func BenchmarkCancelReschedule(b *testing.B) { benchkernel.CancelReschedule(b) }
func BenchmarkPacketStorm(b *testing.B)      { benchkernel.PacketStorm(b) }
func BenchmarkQueueMix(b *testing.B)         { benchkernel.QueueMix(b) }

// BenchmarkProcSwitch times one park/resume pair: a lone process sleeping
// one tick per iteration, so each op is one event, one switch into the
// process and one switch back. Run it with -cpu 1,2: a hand-off that wakes
// an idle thread shows up as the -cpu 2 number being the slower one.
func BenchmarkProcSwitch(b *testing.B) {
	e := sim.NewEngine()
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
