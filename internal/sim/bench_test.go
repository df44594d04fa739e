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
// 65 536 events at one instant of a future bucket, every other one
// cancelled in scheduling order, then Run reaches the bucket and drains the
// rest. One op is one such burst; a warm-up burst first grows the arena
// and the run, so the timed ones allocate nothing.
func BenchmarkSameInstantBurst(b *testing.B) {
	sameInstantBurst(b, func(e *sim.Engine, ev *sim.Event) { e.Cancel(ev) })
}

// BenchmarkSameInstantRescheduleBurst is the same burst with every other
// event rescheduled one nanosecond later instead of cancelled. Reschedule
// unlinks each from the bucket's list, a walk of it, so this one is
// quadratic in the burst: seconds per op, where the cancelling burst takes
// milliseconds. It is left out of CI's benchmark pass for that reason.
func BenchmarkSameInstantRescheduleBurst(b *testing.B) {
	sameInstantBurst(b, func(e *sim.Engine, ev *sim.Event) { e.Reschedule(ev, ev.When()+1) })
}

// sameInstantBurst times bursts of 65 536 events at one instant of a
// future bucket, drop applied to every other one in scheduling order.
func sameInstantBurst(b *testing.B, drop func(*sim.Engine, *sim.Event)) {
	e := sim.NewEngine()
	fn := func() {}
	evs := make([]*sim.Event, 1<<16)
	burst := func() {
		at := e.Now() + 100
		for i := range evs {
			evs[i] = e.At(at, fn)
		}
		for i := 0; i < len(evs); i += 2 {
			drop(e, evs[i])
		}
		e.Run()
	}
	burst()
	b.ReportAllocs()
	for b.Loop() {
		burst()
	}
}
