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
