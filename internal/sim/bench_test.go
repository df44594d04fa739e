package sim_test

// Event-kernel micro-benchmarks. The bodies live in internal/benchkernel
// so the repo benchmark times the same PacketStorm loop.
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

// BenchmarkSameInstantBurst is the queue's worst case for one bucket:
// 65 536 timers armed at one instant of a future bucket, every other one
// stopped in arming order, then Run reaches the bucket and drains the
// rest. One op is one such burst; a warm-up burst first grows the arena
// and the run, so the timed ones allocate nothing.
func BenchmarkSameInstantBurst(b *testing.B) {
	sameInstantBurst(b, func(tm *sim.Timer) { tm.Stop() })
}

// BenchmarkSameInstantResetBurst is the same burst with every other timer
// re-armed one nanosecond later instead of stopped. A re-arm marks the
// event on its list and schedules afresh, so the bucket the ring reaches
// holds twice the pending events of the stopping burst, and no more than
// that is sorted.
func BenchmarkSameInstantResetBurst(b *testing.B) {
	sameInstantBurst(b, func(tm *sim.Timer) { tm.Reset(tm.When() + 1) })
}

// sameInstantBurst times bursts of 65 536 timers armed at one instant of a
// future bucket, drop applied to every other one in arming order.
func sameInstantBurst(b *testing.B, drop func(*sim.Timer)) {
	e := sim.NewEngine()
	fn := func() {}
	tms := make([]*sim.Timer, 1<<16)
	for i := range tms {
		tms[i] = e.NewTimer(fn)
	}
	burst := func() {
		at := e.Now() + 100
		for _, tm := range tms {
			tm.Reset(at)
		}
		for i := 0; i < len(tms); i += 2 {
			drop(tms[i])
		}
		e.Run()
	}
	burst()
	b.ReportAllocs()
	for b.Loop() {
		burst()
	}
}
