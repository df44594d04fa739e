package gm

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RecvEvent is delivered to the host when a complete message has arrived.
// Data is the host receive buffer, exactly the message long.
//
// Ownership: the port lends the event and Data, as bufio.Scanner lends Bytes,
// until its next Recv or TryRecv — even one that blocks or finds nothing —
// takes both back for a later message. A holder that needs them longer (a
// queue of unmatched messages; a forwarder, whose Send reads Data until it
// completes) calls Port.Keep before that receive and Port.Release when done;
// a kept event that is never released is ordinary garbage.
type RecvEvent struct {
	Src     fabric.NodeID
	SrcPort PortID
	MsgID   uint64
	Group   GroupID
	Data    []byte

	asm *Assembly // what the spares recycle; nil on a firmware-generated event
}

// tokenRun is count host-posted receive tokens of one capacity, the largest
// message each admits. A token is nothing but its capacity, so equal ones
// are interchangeable and a count stands for them all. The buffer is the
// NIC's business (MatchAssembly), sized to the message that claims the token.
type tokenRun struct {
	capacity, count int
}

// findRun returns the index of the first run whose capacity is at least c,
// and whether its capacity is exactly c.
func findRun(runs []tokenRun, c int) (int, bool) {
	return slices.BinarySearchFunc(runs, c, func(r tokenRun, c int) int { return cmp.Compare(r.capacity, c) })
}

// asmKey identifies an in-progress message assembly.
type asmKey struct {
	src     fabric.NodeID
	srcPort PortID
	msgID   uint64
}

// Assembly is a message being gathered into a host receive buffer. It is
// exported (with accessor methods) because the multicast extension
// deposits forwarded packets into assemblies. The assembly embeds the
// receive event it becomes, so assembly, event and buffer reach the host
// and come back to the spares as one object.
type Assembly struct {
	ev       RecvEvent // ev.Data is the host buffer, the message long
	port     *Port
	received int
	done     bool   // delivered: queued for the host, lent, kept or spare
	kept     bool   // the host's until Release (Port.Keep)
	tabled   bool   // in port.asms, where the message's later packets find it
	post     func() // a.deliver, bound once so a delivery allocates nothing
}

func (a *Assembly) key() asmKey {
	return asmKey{src: a.ev.Src, srcPort: a.ev.SrcPort, msgID: a.ev.MsgID}
}

// MsgLen reports the total message length being assembled.
func (a *Assembly) MsgLen() int { return len(a.ev.Data) }

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
	copy(a.ev.Data[off:], data)
	a.received += len(data)
	if a.received > len(a.ev.Data) {
		panic(fmt.Sprintf("gm: assembly overflow: %d > %d", a.received, len(a.ev.Data)))
	}
	if a.received == len(a.ev.Data) {
		a.done = true
		if a.tabled {
			delete(a.port.asms, a.key())
		}
		a.port.nic.HW.PostHostEvent(a.post)
	}
}

func (a *Assembly) deliver() { a.port.deliver(&a.ev) }

// Port is a host process's protected endpoint: the user-visible half of
// GM. All blocking methods take the calling simulated process.
type Port struct {
	nic *NIC
	id  PortID

	sendTokens int
	sendWaiter sim.Waiter

	doneAvail  int // completed sends not yet consumed by WaitSendDone
	doneWaiter sim.Waiter

	recvEvents []*RecvEvent
	recvWaiter sim.Waiter

	// recvTokens are the posted receive tokens, in runs sorted by capacity,
	// none empty; nTokens counts them.
	recvTokens []tokenRun
	nTokens    int
	// asms holds the assemblies of multi-packet messages, made when the
	// port opens the first one: a port that only receives whole-message
	// packets never builds the table.
	asms map[asmKey]*Assembly
	lent *Assembly // what the last Recv or TryRecv returned; the next takes it back
}

func newPort(n *NIC, id PortID) *Port {
	return &Port{nic: n, id: id, sendTokens: n.Cfg.SendTokens}
}

// NIC returns the firmware NIC the port belongs to.
func (p *Port) NIC() *NIC { return p.nic }

// ID reports the port number.
func (p *Port) ID() PortID { return p.id }

// Node reports the port's network ID.
func (p *Port) Node() fabric.NodeID { return p.nic.ID() }

// Provide posts a receive token: permission to deliver one message of up
// to capacity bytes. Like GM, receiving is impossible without posted tokens.
// The token carries no memory — the NIC lands the message in a buffer of
// the message's own length, a spare (see RecvEvent) when one is large
// enough — so a receive loop provides a token for each event and does
// nothing else to recycle the buffers.
func (p *Port) Provide(capacity int) { p.ProvideN(1, capacity) }

// ProvideN posts n receive tokens of the given capacity at once. Past
// Config.RecvTokensMax it panics with ErrTokenExhausted and posts none.
func (p *Port) ProvideN(n, capacity int) {
	if n <= 0 {
		return
	}
	if max := p.nic.Cfg.RecvTokensMax; max > 0 && p.nTokens+n > max {
		panic(fmt.Errorf("%w: port %d exceeds %d", ErrTokenExhausted, p.id, max))
	}
	i, ok := findRun(p.recvTokens, capacity)
	if !ok {
		p.recvTokens = slices.Insert(p.recvTokens, i, tokenRun{capacity: capacity})
	}
	p.recvTokens[i].count += n
	p.nTokens += n
}

// RecvTokens reports how many receive tokens are currently posted.
func (p *Port) RecvTokens() int { return p.nTokens }

// FreeSendTokens reports the host-level send tokens currently available —
// back to Config.SendTokens once every posted send has completed.
func (p *Port) FreeSendTokens() int { return p.sendTokens }

// takeSendToken blocks the caller until a host-level send token is free
// and consumes it. The wait (zero when a token is free) feeds the
// token_wait_ns histogram — the host-visible cost of send-descriptor
// backpressure.
func (p *Port) takeSendToken(proc *sim.Proc) {
	began := p.nic.Engine().Now()
	for p.sendTokens == 0 {
		p.sendWaiter.Wait(proc)
	}
	p.sendTokens--
	p.nic.m.tokenWaitNs.Observe(int64(p.nic.Engine().Now() - began))
}

// returnSendToken releases a host-level send token and wakes waiters.
// The firmware calls it when a send completes.
func (p *Port) returnSendToken() {
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
	p.nic.HW.HostPost(p.newToken(proc, dst, dstPort, data).step)
}

// SendGroup posts a message to the extension's group id, exactly like a
// unicast Send: one host send token, one send event. After the send-event
// processing the NIC hands the message to the extension (Extension.Enqueue);
// onEpoch, when non-nil, is told the group epoch it stages in. Completion is
// observable via WaitSendDone.
func (p *Port) SendGroup(proc *sim.Proc, id GroupID, data []byte, onEpoch func(epoch uint32)) {
	t := p.newToken(proc, 0, 0, data)
	t.mcast, t.group, t.onEpoch = true, id, onEpoch
	p.nic.HW.HostPost(t.step)
}

// newToken is the host's half of a post: it takes a host-level send token
// and builds the send event, then hands over the NIC's send token for the
// message — off the NIC's free list, or made. A NIC never owns more tokens
// than Config.SendTokens for each of its ports.
func (p *Port) newToken(proc *sim.Proc, dst fabric.NodeID, dstPort PortID, data []byte) *Token {
	p.takeSendToken(proc)
	proc.Compute(p.nic.Cfg.HostSendPost)
	n := p.nic
	var t *Token
	if k := len(n.tokFree); k > 0 {
		t = n.tokFree[k-1]
		n.tokFree = n.tokFree[:k-1]
	} else {
		t = new(Token)
		t.step = t.run
	}
	t.port, t.dst, t.dstPort, t.data = p, dst, dstPort, data
	return t
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

// Recv takes back the event it lent last, blocks until a message arrives
// and lends its event, charging the host receive-path cost.
func (p *Port) Recv(proc *sim.Proc) *RecvEvent {
	ev, ok := p.TryRecv()
	for !ok {
		p.recvWaiter.Wait(proc)
		ev, ok = p.TryRecv()
	}
	proc.Compute(p.nic.Cfg.HostRecvCost)
	return ev
}

// TryRecv is Recv that neither blocks nor charges the receive-path cost.
func (p *Port) TryRecv() (*RecvEvent, bool) {
	if p.lent != nil {
		p.spare(p.lent)
		p.lent = nil
	}
	if len(p.recvEvents) == 0 {
		return nil, false
	}
	ev := p.recvEvents[0]
	p.recvEvents = slices.Delete(p.recvEvents, 0, 1)
	p.lent = ev.asm
	return ev, true
}

// spare hands a to the NIC's spares, poisoned in -race builds.
func (p *Port) spare(a *Assembly) {
	poison(a.ev.Data)
	a.kept = false
	p.nic.pool().put(a)
}

// PendingRecvs reports the receive-event queue depth.
func (p *Port) PendingRecvs() int { return len(p.recvEvents) }

// deliver queues an event whose record has reached host memory.
func (p *Port) deliver(ev *RecvEvent) {
	if p.nic.Trace.Enabled() {
		p.nic.Trace.Log(p.nic.Engine().Now(), p.nic.ID(), trace.Host,
			"delivered %d bytes from %v (msg %d, group %d)", len(ev.Data), ev.Src, ev.MsgID, ev.Group)
	}
	p.recvEvents = append(p.recvEvents, ev)
	p.recvWaiter.WakeAll()
}

// PostGroupEvent posts a firmware-generated group event (e.g. a barrier
// completion) to the host through the normal event-DMA path.
func (p *Port) PostGroupEvent(ev *RecvEvent) {
	n := p.nic
	if n.groupPost == nil {
		n.groupPost = n.landGroupEvent
	}
	n.groupEvents = append(n.groupEvents, groupEvent{p, ev})
	n.HW.PostHostEvent(n.groupPost)
}

// groupEvent is a firmware-generated event on its way to a port's host.
type groupEvent struct {
	port *Port
	ev   *RecvEvent
}

// landGroupEvent delivers the oldest posted group event: the NIC's RDMA
// engine is FIFO, so the record that has just landed is the one posted first.
func (n *NIC) landGroupEvent() {
	ge := n.groupEvents[0]
	n.groupEvents = slices.Delete(n.groupEvents, 0, 1)
	ge.port.deliver(ge.ev)
}

// Keep takes the event the port lends out of the loan, before the port's next
// receive: the port leaves it and its buffer alone until Release. Keeping a
// kept event, or a firmware-generated one (no buffer), does nothing.
func (p *Port) Keep(ev *RecvEvent) {
	if a := p.asmOf(ev); a != nil && !a.kept {
		if a != p.lent {
			panic("gm: keep of an event the port no longer lends")
		}
		a.kept, p.lent = true, nil
	}
}

// Release hands a kept event and its buffer to the spares for the next
// message that fits, so the caller must be finished with both. Releasing an
// event not kept on this port (a lent one above all: the port takes that back
// by itself) or releasing twice panics; a firmware-generated event has no
// buffer and releasing it does nothing. Releasing posts no token.
func (p *Port) Release(ev *RecvEvent) {
	if a := p.asmOf(ev); a != nil {
		if !a.kept {
			panic("gm: release of an event that was not kept")
		}
		p.spare(a)
	}
}

// asmOf returns ev's assembly, nil for a firmware event; another port's panics.
func (p *Port) asmOf(ev *RecvEvent) *Assembly {
	a := ev.asm
	if a != nil && a.port != p {
		panic(fmt.Sprintf("gm: port %d handles an event received on port %d of node %v", p.id, a.port.id, a.port.Node()))
	}
	return a
}

// MatchAssembly finds the in-progress assembly for the message fr is a packet
// of, or matches a new receive token and opens one. src is the message's
// source: the NIC the packet came from for unicast; the multicast extension
// (which this is exported for) names the tree's root, not the forwarder.
// Matching is best-fit (the smallest posted capacity that admits the
// message), standing in for GM's size-class token matching: a large token is
// never consumed by a small message that a smaller one admits. A binary
// search over the capacity runs finds it. The token's capacity is the
// admission test and nothing else; the host buffer is MsgLen long, the
// tightest-fitting spare of the NIC's engine when one is large enough. It
// reports false when no token fits — the caller must then refuse the packet.
//
// A packet that carries its whole message never enters the assembly table:
// the table exists so a message's later packets find what its first one
// opened, and this message has no later packet. No duplicate can open a second
// assembly for it either — both callers (Desc.rxData here, the multicast
// extension's Look) match only a packet whose sequence number is the one
// expected, and accepting it advances that number, so a repeat is refused by
// the sequence check before it reaches this function.
func (p *Port) MatchAssembly(src fabric.NodeID, fr *Frame) (*Assembly, bool) {
	msgLen := fr.MsgLen
	whole := fr.Offset == 0 && len(fr.Payload) == msgLen
	if !whole {
		if a, ok := p.asms[asmKey{src: src, srcPort: fr.SrcPort, msgID: fr.MsgID}]; ok {
			return a, true
		}
	}
	i, _ := findRun(p.recvTokens, msgLen)
	if i == len(p.recvTokens) {
		return nil, false
	}
	if p.recvTokens[i].count--; p.recvTokens[i].count == 0 {
		p.recvTokens = slices.Delete(p.recvTokens, i, i+1)
	}
	p.nTokens--
	a := p.nic.spares.take(msgLen)
	if a == nil {
		a = new(Assembly)
		a.post = a.deliver
	}
	if cap(a.ev.Data) < msgLen {
		// Grow's capacity is the whole size class: room for a longer next message.
		a.ev.Data = slices.Grow([]byte(nil), msgLen)
	}
	a.port = p
	a.ev = RecvEvent{Src: src, SrcPort: fr.SrcPort, MsgID: fr.MsgID, Group: fr.Group, Data: a.ev.Data[:msgLen], asm: a}
	a.received, a.done, a.tabled = 0, false, !whole
	if a.tabled {
		if p.asms == nil {
			p.asms = make(map[asmKey]*Assembly)
		}
		p.asms[a.key()] = a
	}
	return a, true
}
