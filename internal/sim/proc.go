package sim

import (
	"fmt"
	"iter"
)

// killedError is the sentinel panic value used to unwind a parked process
// when the engine shuts it down.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process killed: " + k.name }

// Proc is a simulated process: a coroutine that runs cooperatively under
// the engine. At any instant at most one process (or event callback) is
// executing; a process gives up control by calling Sleep, or by waiting on
// a Waiter, and the engine resumes it at the proper virtual time.
//
// The coroutine is an iter.Pull iterator that never yields a value: the
// engine resumes the process with next, the process parks with yield, and
// stop unwinds it. Both directions are a runtime coroswitch — the thread
// goes straight from one goroutine to the other, so a hand-off neither
// passes through the Go scheduler nor wakes a second thread to look for
// work, which is what a channel send does.
type Proc struct {
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // engine -> proc: run until the next park
	stop   func()                  // engine -> proc: make the pending yield report false
	yield  func(struct{}) bool     // proc -> engine; false means "kill yourself"
	done   bool
	parked bool // true while the coroutine is suspended awaiting resume
	// resumeFn is the wake-up callback scheduled every time the process
	// unparks; allocated once at spawn so Sleep and Waiter wake-ups do not
	// allocate a closure per park.
	resumeFn func()
	// busy accumulates time the process spent "computing" via Compute,
	// as opposed to parked; used for host-CPU accounting.
	busy Time
}

// Name reports the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports current virtual time; shorthand for p.Engine().Now().
func (p *Proc) Now() Time { return p.eng.now }

// Spawn starts fn as a simulated process. fn begins executing at the
// current virtual time, after the currently-running work yields. A panic
// in fn comes out of the Step or Run call that resumed the process, with
// its original value, on the caller's goroutine.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		parked: true, // awaiting its start resume
	}
	p.resumeFn = func() { e.step(p) }
	e.procs[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			delete(e.procs, p)
			// A kill ends here. Any other panic carries on: iter.Pull
			// re-raises it from next, on the engine side.
			if r := recover(); r != nil {
				if _, killed := r.(killedError); !killed {
					panic(r)
				}
			}
		}()
		fn(p)
	})
	e.At(e.now, p.resumeFn)
	return p
}

// step hands control to p and returns once p parks again or finishes.
// A stale wake-up (the process was already resumed by another event at the
// same timestamp) is dropped harmlessly: only parked processes resume.
func (e *Engine) step(p *Proc) {
	if p.done || !p.parked {
		return
	}
	prev := e.current
	e.current = p
	p.parked = false
	// Deferred, so that a panic coming out of the process body leaves the
	// engine outside any process, able to Kill the rest.
	defer func() { e.current = prev }()
	p.next()
}

// park gives control back to the engine and returns once resumed.
// Must be called from the process's own coroutine.
func (p *Proc) park() {
	p.parked = true
	if !p.yield(struct{}{}) {
		panic(killedError{p.name})
	}
}

// checkContext panics if called from outside the process's coroutine while
// the engine believes another process is running; it catches the classic
// mistake of calling a blocking Proc method from an event callback.
func (p *Proc) checkContext() {
	if p.eng.current != p {
		panic(fmt.Sprintf("sim: blocking call on process %q from outside its goroutine", p.name))
	}
}

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.checkContext()
	if d < 0 {
		d = 0
	}
	p.eng.At(p.eng.now+d, p.resumeFn)
	p.park()
}

// Compute is Sleep that also accounts the time as host computation;
// use it to model CPU work performed by the process.
func (p *Proc) Compute(d Time) {
	p.busy += d
	p.Sleep(d)
}

// BusyTime reports the total virtual time the process has spent in Compute.
func (p *Proc) BusyTime() Time { return p.busy }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Kill unwinds all live processes so their coroutines exit. It must be
// called from outside any process (e.g. after Run returns in a test).
func (e *Engine) Kill() {
	if e.current != nil {
		panic("sim: Kill called from inside a process")
	}
	for len(e.procs) > 0 {
		// Take any process; map order is fine since each is killed
		// independently and cannot observe the others.
		var victim *Proc
		for p := range e.procs {
			victim = p
			break
		}
		delete(e.procs, victim)
		victim.kill()
	}
}

// kill unwinds p: a parked body sees its yield report false and panics out
// with killedError. A body that never started never runs at all, so it is
// marked done here rather than by its own epilogue.
func (p *Proc) kill() {
	if p.done {
		return
	}
	p.stop()
	p.done = true
}

// LiveProcs reports how many spawned processes have not yet finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }
