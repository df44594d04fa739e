package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// A minimal simulation: two processes exchange control through a Waiter
// while the virtual clock advances only as far as scheduled work demands.
func Example() {
	eng := sim.NewEngine()
	ready := new(sim.Waiter)
	done := false

	eng.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(40 * sim.Microsecond) // pretend to build something
		done = true
		ready.WakeAll()
	})
	eng.Spawn("consumer", func(p *sim.Proc) {
		for !done {
			ready.Wait(p)
		}
		fmt.Printf("consumed at %v\n", p.Now())
	})
	eng.Run()
	fmt.Printf("simulation ended at %v after %d events\n", eng.Now(), eng.EventsFired())
	// Output:
	// consumed at 40.000µs
	// simulation ended at 40.000µs after 4 events
}

// Facilities model serially-shared resources: reservations queue in FIFO
// order and completions fire as events.
func ExampleFacility() {
	eng := sim.NewEngine()
	dma := sim.NewFacility(eng)
	eng.At(0, func() {
		dma.Do(10*sim.Microsecond, func() { fmt.Println("first at", eng.Now()) })
		dma.Do(10*sim.Microsecond, func() { fmt.Println("second at", eng.Now()) })
	})
	eng.Run()
	// Output:
	// first at 10.000µs
	// second at 20.000µs
}
