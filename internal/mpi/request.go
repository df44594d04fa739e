package mpi

// Nonblocking point-to-point operations. True overlap comes from the
// library's preposted eager buffers: a message that arrives while the
// host computes is accepted by the NIC and parked in the unexpected
// queue, so Wait returns immediately. Rendezvous legs progress inside
// Wait, which is legal MPI progress semantics.

// Request is a pending nonblocking operation.
type Request struct {
	done   bool
	result []byte
	finish func() []byte // runs the remaining protocol legs
	probe  func() bool   // reports whether Wait would not block
}

// Wait blocks until the operation completes and returns the received
// payload (nil for sends).
func (q *Request) Wait() []byte {
	if !q.done {
		q.result = q.finish()
		q.done = true
	}
	return q.result
}

// Test reports whether the operation has completed or would complete
// without blocking; it never blocks and never advances rendezvous legs.
func (q *Request) Test() bool {
	if q.done {
		return true
	}
	return q.probe != nil && q.probe()
}

// Isend starts a nonblocking send on the communicator. Eager messages are
// fully handed to GM before returning; rendezvous handshakes complete
// inside Wait.
func (c *Comm) Isend(dst int, tag int32, data []byte) *Request {
	if tag < 0 {
		panic(ErrNegativeTag)
	}
	if len(data) <= EagerMax {
		c.r.send(c.id, c.members[dst], tag, data)
		return &Request{done: true}
	}
	return &Request{
		finish: func() []byte {
			c.r.send(c.id, c.members[dst], tag, data)
			return nil
		},
		probe: func() bool { return false }, // rendezvous progresses in Wait
	}
}

// Irecv starts a nonblocking receive on the communicator.
func (c *Comm) Irecv(src int, tag int32) *Request {
	if tag < 0 {
		panic(ErrNegativeTag)
	}
	r := c.r
	return &Request{
		finish: func() []byte { return r.recv(c.id, c.members[src], tag, nil) },
		probe: func() bool {
			r.drainPort()
			return r.hasMatch(c.id, c.members[src], tag)
		},
	}
}

// Isend and Irecv on the world communicator.
func (r *Rank) Isend(dst int, tag int32, data []byte) *Request {
	return r.World().Isend(dst, tag, data)
}
func (r *Rank) Irecv(src int, tag int32) *Request { return r.World().Irecv(src, tag) }

// Waitall completes a set of requests.
func Waitall(reqs ...*Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		out[i] = q.Wait()
	}
	return out
}

// drainPort moves any already-delivered events into the unexpected queue
// without blocking, so Test can see them.
func (r *Rank) drainPort() {
	for ev, ok := r.port.TryRecv(); ok; ev, ok = r.port.TryRecv() {
		r.port.Keep(ev)
		r.unexpected = append(r.unexpected, ev)
	}
}

// hasMatch reports whether the unexpected queue holds an eager or RTS
// message for (comm, src, tag).
func (r *Rank) hasMatch(comm uint32, src int, tag int32) bool {
	for _, ev := range r.unexpected {
		if ev.Group != 0 || ev.Src != r.node(src) {
			continue
		}
		env, _ := decodeEnvelope(ev.Data)
		if env.comm == comm && env.tag == tag && (env.kind == kEager || env.kind == kRTS) {
			return true
		}
	}
	return false
}
