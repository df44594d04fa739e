package sim

// Waiter is a FIFO wait queue for processes, the engine's condition
// variable. Processes wait; event callbacks (or other processes) wake them.
// Wake-ups are edge-triggered and scheduled at the current time, after the
// waking work completes, so users re-check their predicate in a loop:
//
//	for !ready() {
//		w.Wait(p)
//	}
//
// The zero Waiter is an empty queue, ready to use, so an owner holds its
// waiters by value. A waiter is bound to no engine: each process is resumed
// on its own, which is the engine whose events may wake it.
type Waiter struct {
	queue []*Proc
}

// Wait parks p until a Wake call releases it.
func (w *Waiter) Wait(p *Proc) {
	p.checkContext()
	w.queue = append(w.queue, p)
	p.park()
}

// Waiting reports how many processes are parked on w.
func (w *Waiter) Waiting() int { return len(w.queue) }

// WakeOne releases the longest-waiting process, if any, and reports
// whether one was released. The process resumes at the current virtual
// time once the currently-running work yields.
func (w *Waiter) WakeOne() bool {
	if len(w.queue) == 0 {
		return false
	}
	p := w.queue[0]
	// Shift down in place rather than reslicing past the head: the array
	// keeps its capacity, so the next Wait appends without allocating.
	n := copy(w.queue, w.queue[1:])
	w.queue[n] = nil
	w.queue = w.queue[:n]
	p.eng.At(p.eng.now, p.resumeFn)
	return true
}

// WakeAll releases every waiting process in FIFO order, in one pass:
// WakeOne's shift per process would make it quadratic in the queue length.
func (w *Waiter) WakeAll() {
	for _, p := range w.queue {
		p.eng.At(p.eng.now, p.resumeFn)
	}
	clear(w.queue)
	w.queue = w.queue[:0]
}

// WaitTimeout parks p until woken or until d elapses. It reports true if
// woken, false on timeout.
func (w *Waiter) WaitTimeout(p *Proc, d Time) bool {
	p.checkContext()
	woken := false
	fired := false
	w.queue = append(w.queue, p)
	timer := p.eng.After(d, func() {
		fired = true
		// Remove p from the queue so a later Wake doesn't resume a
		// process that already timed out.
		for i, q := range w.queue {
			if q == p {
				w.queue = append(w.queue[:i], w.queue[i+1:]...)
				break
			}
		}
		p.eng.step(p)
	})
	// Mark the entry so a Wake cancels the timer. We detect wake-vs-timeout
	// by whether the timer is still pending when we resume.
	p.park()
	if !fired && timer.Pending() {
		p.eng.Cancel(timer)
		woken = true
	}
	return woken
}
