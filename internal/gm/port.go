package gm

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RecvEvent is delivered to the host when a complete message has arrived.
// Data is the host receive buffer, filled to the message length.
type RecvEvent struct {
	Src     fabric.NodeID
	SrcPort PortID
	MsgID   uint64
	Group   GroupID
	Data    []byte
}

// recvToken is one host-posted receive buffer awaiting a message. Until a
// message claims it the token is only its capacity; matchAssembly
// allocates the buffer.
type recvToken struct {
	capacity int
}

// asmKey identifies an in-progress message assembly.
type asmKey struct {
	src     fabric.NodeID
	srcPort PortID
	msgID   uint64
}

// Assembly is a message being gathered into a host receive buffer. It is
// exported (with accessor methods) because the multicast extension
// deposits forwarded packets into assemblies and retransmits from their
// host-memory replica — the paper's "use the message replica in the host
// memory for retransmission".
type Assembly struct {
	port     *Port
	key      asmKey
	group    GroupID
	buf      []byte
	msgLen   int
	received int
	done     bool
}

// Bytes exposes the registered host buffer backing the assembly.
func (a *Assembly) Bytes() []byte { return a.buf }

// MsgLen reports the total message length being assembled.
func (a *Assembly) MsgLen() int { return a.msgLen }

// Done reports whether the message completed and was delivered.
func (a *Assembly) Done() bool { return a.done }

// Deposit copies one packet's payload into the host buffer. When the last
// byte lands, the receive event is posted to the host (via the event-DMA
// path) and the assembly is retired. Depositing the same range twice
// panics — sequence checking upstream must prevent it.
func (a *Assembly) Deposit(off int, data []byte) {
	if a.done {
		panic("gm: deposit into completed assembly")
	}
	copy(a.buf[off:], data)
	a.received += len(data)
	if a.received > a.msgLen {
		panic(fmt.Sprintf("gm: assembly overflow: %d > %d", a.received, a.msgLen))
	}
	if a.received == a.msgLen {
		a.done = true
		delete(a.port.asms, a.key)
		a.port.postRecvEvent(&RecvEvent{
			Src:     a.key.src,
			SrcPort: a.key.srcPort,
			MsgID:   a.key.msgID,
			Group:   a.group,
			Data:    a.buf[:a.msgLen],
		})
	}
}

// Port is a host process's protected endpoint: the user-visible half of
// GM. All blocking methods take the calling simulated process.
type Port struct {
	nic *NIC
	id  PortID

	sendTokens int
	sendWaiter *sim.Waiter

	doneAvail  int // completed sends not yet consumed by WaitSendDone
	doneWaiter *sim.Waiter

	recvEvents []*RecvEvent
	recvWaiter *sim.Waiter

	recvTokens []recvToken
	asms       map[asmKey]*Assembly

	// regions are remotely writable registered buffers (directed sends).
	regions    map[RegionID]*region
	nextRegion RegionID
}

func newPort(n *NIC, id PortID) *Port {
	return &Port{
		nic:        n,
		id:         id,
		sendTokens: n.Cfg.SendTokens,
		sendWaiter: sim.NewWaiter(n.Engine()),
		doneWaiter: sim.NewWaiter(n.Engine()),
		recvWaiter: sim.NewWaiter(n.Engine()),
		asms:       make(map[asmKey]*Assembly),
	}
}

// NIC returns the firmware NIC the port belongs to.
func (p *Port) NIC() *NIC { return p.nic }

// ID reports the port number.
func (p *Port) ID() PortID { return p.id }

// Node reports the port's network ID.
func (p *Port) Node() fabric.NodeID { return p.nic.ID() }

// Provide posts a receive buffer of the given capacity — a receive token.
// Like GM, receiving is impossible without posted tokens.
func (p *Port) Provide(capacity int) {
	if max := p.nic.Cfg.RecvTokensMax; max > 0 && len(p.recvTokens) >= max {
		panic(fmt.Errorf("%w: port %d exceeds %d", ErrTokenExhausted, p.id, max))
	}
	p.recvTokens = append(p.recvTokens, recvToken{capacity: capacity})
}

// ProvideN posts n receive buffers of the given capacity.
func (p *Port) ProvideN(n, capacity int) {
	for i := 0; i < n; i++ {
		p.Provide(capacity)
	}
}

// RecvTokens reports how many receive buffers are currently posted.
func (p *Port) RecvTokens() int { return len(p.recvTokens) }

// FreeSendTokens reports the host-level send tokens currently available —
// back to Config.SendTokens once every posted send has completed.
func (p *Port) FreeSendTokens() int { return p.sendTokens }

// TakeSendToken blocks the caller until a host-level send token is free
// and consumes it. Exposed for the multicast extension's host API. The
// wait (zero when a token is free) feeds the token_wait_ns histogram —
// the host-visible cost of send-descriptor backpressure.
func (p *Port) TakeSendToken(proc *sim.Proc) {
	began := p.nic.Engine().Now()
	for p.sendTokens == 0 {
		p.sendWaiter.Wait(proc)
	}
	p.sendTokens--
	p.nic.m.tokenWaitNs.Observe(int64(p.nic.Engine().Now() - began))
}

// ReturnSendToken releases a host-level send token and wakes waiters.
// The firmware calls it when a send completes.
func (p *Port) ReturnSendToken() {
	p.sendTokens++
	p.doneAvail++
	p.sendWaiter.WakeOne()
	p.doneWaiter.WakeOne()
}

// Send transmits data to (dst, dstPort) reliably and in order. It blocks
// only until the send descriptor is posted (taking a send token); delivery
// completion is observable via WaitSendDone. The caller must not mutate
// data until the send completes.
func (p *Port) Send(proc *sim.Proc, dst fabric.NodeID, dstPort PortID, data []byte) {
	if dst == p.Node() {
		panic(ErrSelfSend)
	}
	p.TakeSendToken(proc)
	proc.Compute(p.nic.Cfg.HostSendPost)
	n := p.nic
	n.HW.HostPost(func() {
		n.HW.CPUDo(n.Cfg.SendEventCost, func() {
			c := n.sendConn(p.id, dst, dstPort)
			tok := &sendToken{
				port:  p,
				conn:  c,
				msgID: n.NewMsgID(),
				data:  data,
				onDone: func() {
					p.ReturnSendToken()
				},
			}
			c.enqueue(tok)
		})
	})
}

// WaitSendDone blocks until one previously-posted send has been fully
// acknowledged, consuming the completion.
func (p *Port) WaitSendDone(proc *sim.Proc) {
	for p.doneAvail == 0 {
		p.doneWaiter.Wait(proc)
	}
	p.doneAvail--
}

// SendSync sends and waits for the remote NIC to acknowledge all packets.
func (p *Port) SendSync(proc *sim.Proc, dst fabric.NodeID, dstPort PortID, data []byte) {
	p.Send(proc, dst, dstPort, data)
	p.WaitSendDone(proc)
}

// Recv blocks until a message arrives and returns its event, charging the
// host receive-path cost.
func (p *Port) Recv(proc *sim.Proc) *RecvEvent {
	for len(p.recvEvents) == 0 {
		p.recvWaiter.Wait(proc)
	}
	ev, _ := p.TryRecv()
	proc.Compute(p.nic.Cfg.HostRecvCost)
	return ev
}

// TryRecv returns a pending message without blocking.
func (p *Port) TryRecv() (*RecvEvent, bool) {
	if len(p.recvEvents) == 0 {
		return nil, false
	}
	ev := p.recvEvents[0]
	// Copy down rather than slide off the front: recvEvents[1:] would
	// abandon the backing array, so the next event would allocate a new one,
	// and would keep the array's last message alive until then.
	n := copy(p.recvEvents, p.recvEvents[1:])
	p.recvEvents[n] = nil
	p.recvEvents = p.recvEvents[:n]
	return ev, true
}

// PendingRecvs reports the receive-event queue depth.
func (p *Port) PendingRecvs() int { return len(p.recvEvents) }

// postRecvEvent DMAs a receive event record to the host and wakes readers.
func (p *Port) postRecvEvent(ev *RecvEvent) {
	hw := p.nic.HW
	hw.RDMA.Do(hw.P.EventPostCost, func() {
		if p.nic.Trace.Enabled() {
			p.nic.Trace.Log(p.nic.Engine().Now(), p.nic.ID(), trace.Host,
				"delivered %d bytes from %v (msg %d, group %d)", len(ev.Data), ev.Src, ev.MsgID, ev.Group)
		}
		p.recvEvents = append(p.recvEvents, ev)
		p.recvWaiter.WakeAll()
	})
}

// PostGroupEvent posts a firmware-generated group event (e.g. a barrier
// completion) to the host through the normal event-DMA path.
func (p *Port) PostGroupEvent(ev *RecvEvent) { p.postRecvEvent(ev) }

// matchAssembly finds the in-progress assembly for a message, or matches a
// new receive token and opens one. Matching is best-fit (the smallest
// posted buffer that holds the message, oldest on ties), standing in for
// GM's size-class token matching: a large rendezvous landing buffer is
// never consumed by a small eager message. It reports false when no token
// fits — the caller must then refuse the packet.
func (p *Port) matchAssembly(src fabric.NodeID, srcPort PortID, msgID uint64, msgLen int, group GroupID) (*Assembly, bool) {
	k := asmKey{src: src, srcPort: srcPort, msgID: msgID}
	if a, ok := p.asms[k]; ok {
		return a, true
	}
	best := -1
	for i, t := range p.recvTokens {
		if t.capacity < msgLen {
			continue
		}
		if best == -1 || t.capacity < p.recvTokens[best].capacity {
			best = i
		}
	}
	if best == -1 {
		return nil, false
	}
	buf := make([]byte, p.recvTokens[best].capacity)
	p.recvTokens = append(p.recvTokens[:best], p.recvTokens[best+1:]...)
	a := &Assembly{port: p, key: k, group: group, buf: buf, msgLen: msgLen}
	p.asms[k] = a
	return a, true
}

// MatchAssembly exposes assembly matching to the multicast extension.
func (p *Port) MatchAssembly(src fabric.NodeID, srcPort PortID, msgID uint64, msgLen int, group GroupID) (*Assembly, bool) {
	return p.matchAssembly(src, srcPort, msgID, msgLen, group)
}
