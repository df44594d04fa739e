package fabric

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Network is an assembled fabric: host interfaces, switches, links, and a
// routing function. Backends construct one with New plus the
// AddSwitch/AddHost/Connect/SetRoute builder calls (see package myrinet and
// package clos); SingleSwitch builds the degenerate one-crossbar testbed
// directly.
//
// A fabric always runs partitioned into shards — one by default, several
// after ApplyPlan — with every vertex's events firing on its shard's
// engine. All mutable per-packet state (transit pools, cross-shard
// outboxes) lives in per-shard slots touched only by that shard's
// goroutine, so a multi-shard run needs no locks: the coordinator's window
// barrier is the only synchronization. Routes are not state: each packet's
// is computed into its transit record and never cached.
type Network struct {
	eng    *sim.Engine
	params LinkParams
	hosts  []*Iface
	verts  []*Vertex
	links  []*Link

	routeFn func(route []int32, src, dst NodeID) []int32

	shards    int
	lookahead sim.Time
	sh        []*shardState

	// drainBuf and drainSort are the barrier-time scratch for merging
	// cross-shard mailboxes; reused so steady-state draining allocates
	// nothing per packet.
	drainBuf  []crossMsg
	drainSort crossSorter

	// LossRate is the per-link probability that a packet is corrupted and
	// discarded (models nonzero bit-error rates). Requires SetRNG.
	//
	// Prefer SetLossRate, which validates the rate and the RNG requirement
	// up front; setting the field directly defers the check to the first
	// transmission.
	LossRate float64
	// DropFn, when non-nil, is consulted per link traversal; returning
	// true drops the packet. It is the test hook for targeted loss. Like
	// every hook here it may read p only during the call: the packet rides
	// in a pooled traversal record that the next packet overwrites.
	DropFn func(p *Packet, l *Link) bool
	// DupFn, when non-nil, is consulted once per packet as its final
	// delivery is scheduled; returning true delivers a second copy of the
	// packet one serialization time after the first (a fault-injection
	// hook: real fabrics duplicate under retransmitting switches). p is
	// valid only during the call.
	DupFn func(p *Packet, l *Link) bool
	// DelayFn, when non-nil, reports extra delivery delay for a packet at
	// its destination — the bounded-reordering fault-injection hook. A
	// packet held back long enough for a later one to overtake it arrives
	// out of order without being lost. p is valid only during the call.
	DelayFn func(p *Packet, l *Link) sim.Time

	rng *sim.RNG

	// m is the fabric-wide block, set by SetMetrics; each shard writes its
	// own copy of it.
	m *instruments
}

// Iface is a host's attachment to the fabric. The NIC model sets Deliver;
// the fabric calls it when a packet has fully arrived. The *Packet is the
// fabric's own traversal record and is valid only for the duration of the
// call: a receiver that needs anything later copies it out (the Payload it
// carries is the upper layer's and may be kept).
type Iface struct {
	net     *Network
	id      NodeID
	up      *Link // host -> first switch
	down    *Link // first switch -> host
	Deliver func(*Packet)
}

// ID reports the interface's network ID.
func (ifc *Iface) ID() NodeID { return ifc.id }

// Uplink reports the host's injection link into the fabric.
func (ifc *Iface) Uplink() *Link { return ifc.up }

// Downlink reports the link that delivers into the host, the last of every
// route to it.
func (ifc *Iface) Downlink() *Link { return ifc.down }

// Engine returns the simulation engine driving the network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Params returns the fabric's link parameters.
func (n *Network) Params() LinkParams { return n.params }

// Hosts reports the number of host interfaces.
func (n *Network) Hosts() int { return len(n.hosts) }

// Iface returns the interface for a node.
func (n *Network) Iface(id NodeID) *Iface { return n.hosts[id] }

// SetRNG installs the randomness source used for loss injection.
func (n *Network) SetRNG(rng *sim.RNG) { n.rng = rng }

// SetLossRate enables stochastic per-link loss, validating the probability
// and the RNG requirement up front so misconfiguration fails at wiring time
// rather than mid-simulation on the first transmit.
func (n *Network) SetLossRate(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("%w: %v", ErrBadLossRate, rate)
	}
	if rate > 0 && n.rng == nil {
		return ErrLossRateWithoutRNG
	}
	n.LossRate = rate
	return nil
}

// Links exposes every directed link of the fabric (fault injection and
// diagnostics; the slice is the network's own — do not mutate).
func (n *Network) Links() []*Link { return n.links }

// MaxHops bounds a route: the six links of an up-down path through a
// three-level fabric, the deepest any backend builds.
const MaxHops = 6

// Route returns the link path from src to dst, computed afresh (the packet
// path computes each packet's route into its transit record instead).
// Routes are deterministic for a given topology.
func (n *Network) Route(src, dst NodeID) []*Link {
	ids := n.route(make([]int32, 0, MaxHops), src, dst)
	route := make([]*Link, len(ids))
	for i, id := range ids {
		route[i] = n.links[id]
	}
	return route
}

// route appends the link numbers from src to dst to r, which has room for
// MaxHops of them.
func (n *Network) route(r []int32, src, dst NodeID) []int32 {
	r = n.routeFn(r, src, dst)
	if len(r) == 0 || len(r) > MaxHops {
		panic(fmt.Sprintf("fabric: route %v -> %v has %d links, want 1 to %d", src, dst, len(r), MaxHops))
	}
	return r
}

// HopCount reports the number of links on the route between two nodes.
func (n *Network) HopCount(src, dst NodeID) int { return len(n.Route(src, dst)) }

// Inject begins transmitting p from its source interface. The caller is
// the NIC transmit engine; the injection link's FIFO discipline serializes
// concurrent transmissions from one NIC. Delivery (or silent loss) happens
// entirely through scheduled events. The packet's fields are copied into the
// traversal record, so p may live on the caller's stack and be reused as
// soon as Inject returns.
func (ifc *Iface) Inject(p *Packet) {
	if p.Src != ifc.id {
		panic(fmt.Sprintf("fabric: packet src %v injected at %v", p.Src, ifc.id))
	}
	ifc.Send(p.Dst, p.Size, p.Payload, p.Ctl, p.TxDone)
}

// Send is Inject with the packet given as its fields, from this interface
// to dst: they are written straight into the traversal record, so the
// caller builds no Packet and none is copied.
func (ifc *Iface) Send(dst NodeID, size int, payload any, ctl Ctl, txDone func()) {
	n := ifc.net
	if size <= 0 {
		panic("fabric: packet with nonpositive size")
	}
	srcV := ifc.up.from
	sh := n.sh[srcV.shard]
	sh.m.injected.Inc()
	tr := sh.newTransit(n)
	p := &tr.p
	p.Src, p.Dst, p.Size, p.Payload, p.Ctl, p.TxDone = ifc.id, dst, size, payload, ctl, txDone
	tr.setRoute()
	tr.i = 0
	tr.headAt = sh.eng.Now()
	tr.delivering = false
	sh.eng.AtDomain(srcV.domain, tr.headAt, tr.step)
}

// transit is the traversal state of one packet in flight: the packet
// itself (by value — the pointer hooks and Deliver see is into this
// record), its route as link numbers, which hop it is on and when its head
// arrives there. Exactly one event is outstanding per transit at any
// instant — except while parked under PFC backpressure, when the link's
// drain event owns the wakeup — so the state advances in place and the
// same pre-bound step callback serves every hop. A transit
// never migrates: when the packet's next hop belongs to another shard, the
// record is released here and the destination shard re-materializes one
// from its own pool.
type transit struct {
	net        *Network
	sh         *shardState
	p          Packet
	route      [MaxHops]int32
	hops, i    int32 // route length, and the hop the packet is on
	headAt     sim.Time
	parkedAt   sim.Time // park timestamp under PFC, for pause_ns accounting
	delivering bool     // final store-and-forward delivery scheduled
	step       func()   // run, bound once when the transit is first created
}

// newTransit recycles a traversal record or creates one (binding its step
// callback exactly once).
func (sh *shardState) newTransit(n *Network) *transit {
	if k := len(sh.transitFree); k > 0 {
		tr := sh.transitFree[k-1]
		sh.transitFree[k-1] = nil
		sh.transitFree = sh.transitFree[:k-1]
		return tr
	}
	tr := &transit{net: n, sh: sh}
	tr.step = tr.run
	return tr
}

// setRoute computes the packet's route into the record.
func (tr *transit) setRoute() {
	tr.hops = int32(copy(tr.route[:], tr.net.route(tr.route[:0], tr.p.Src, tr.p.Dst)))
}

// release drops the packet references and returns tr to its shard's pool.
func (tr *transit) release() {
	scrub(&tr.p)
	tr.sh.transitFree = append(tr.sh.transitFree, tr)
}

// run advances the packet onto route[i] (virtual cut-through: the head
// proceeds to the next hop after the link's latency while the tail is
// still serializing behind it), or — in the delivering phase — hands the
// fully-arrived packet to the destination NIC.
func (tr *transit) run() {
	n := tr.net
	if tr.delivering {
		// Final hop: the destination NIC needs the whole packet (its
		// receive DMA is store-and-forward), so this fires at tail arrival.
		tr.sh.m.delivered.Inc()
		n.deliver(&tr.p)
		tr.release()
		return
	}
	p, l := &tr.p, n.links[tr.route[tr.i]]
	if l.params.PauseBytes > 0 && (len(l.waiters) > 0 || l.queued >= l.params.PauseBytes) {
		// PFC pause: the link's backlog is past the pause threshold (or
		// earlier senders are already parked, whom FIFO fairness must not
		// let us overtake). Park without an outstanding event; the link's
		// drain event wakes waiters once the backlog recedes. The backlog
		// always drains — every queued byte has a drain event scheduled —
		// so parking cannot deadlock.
		tr.parkedAt = tr.sh.eng.Now()
		l.waiters = append(l.waiters, tr)
		l.port.pauses.Inc()
		return
	}
	ser := l.params.SerializationTime(p.Size)
	start := l.fac.Reserve(ser)
	if stall := start - tr.headAt; stall > 0 {
		l.port.stallNs.AddInt(int64(stall))
		l.port.contended.Inc()
	}
	l.wire.txBytes.Add(uint64(p.Size))
	tr.sh.m.linkBusyNs.AddInt(int64(ser))
	if l.params.PauseBytes > 0 {
		l.queued += p.Size
		l.inflight = append(l.inflight, p.Size)
		tr.sh.eng.AtDomain(l.fromDomain, start+ser, l.drainFn)
	}
	if tr.i == 0 && p.TxDone != nil {
		// The source NIC's transmit engine finishes with the packet
		// buffer when the tail clears the injection link.
		tr.sh.eng.At(start+ser, p.TxDone)
	}
	if n.dropped(p, l) {
		l.Drops++
		l.wire.drops.Inc()
		tr.sh.m.dropped.Inc()
		if s, ok := p.Payload.(Shared); ok {
			s.Release()
		}
		tr.release()
		return
	}
	headOut := start + l.params.Latency
	local := int(l.toShard) == tr.sh.id
	if tr.i+1 < tr.hops {
		// The next hop starts at l's far end.
		if local {
			tr.i++
			tr.headAt = headOut
			tr.sh.eng.AtDomain(l.toDomain, headOut, tr.step)
		} else {
			tr.post(l, headOut, crossHop, tr.i+1)
		}
		return
	}
	tailIn := headOut + ser
	if n.DelayFn != nil {
		if d := n.DelayFn(p, l); d > 0 {
			tailIn += d
		}
	}
	// The last link ends at the destination host.
	if n.DupFn != nil && n.DupFn(p, l) {
		// A duplicate copy trails the original by one serialization time,
		// as if a retransmitting switch stage emitted the packet twice.
		// Duplication keeps per-packet state in the injector, so sharded
		// runs reject it up front (cluster validation); the boundary check
		// here is the backstop.
		if !local {
			panic("fabric: duplicate injection across shard boundary unsupported")
		}
		dup := *p // the original's transit is recycled before the copy lands
		pin(p)
		m := tr.sh.m
		tr.sh.eng.AtDomain(l.toDomain, tailIn+ser, func() {
			m.duplicated.Inc()
			m.delivered.Inc()
			n.deliver(&dup)
		})
	}
	if local {
		tr.delivering = true
		tr.sh.eng.AtDomain(l.toDomain, tailIn, tr.step)
	} else {
		tr.post(l, tailIn, crossDeliver, 0)
	}
}

// drain fires one serialization time after each PFC-tracked reservation:
// the packet's tail has left the link, so its bytes no longer occupy the
// sender-side buffer. Once the backlog recedes to the resume threshold,
// parked transits wake in arrival order, inside this event, on the link's
// own domain — so serial and sharded runs draw identical tiebreak keys.
func (l *Link) drain() {
	sz := l.inflight[l.qHead]
	l.inflight[l.qHead] = 0
	l.qHead++
	if l.qHead == len(l.inflight) {
		l.inflight = l.inflight[:0]
		l.qHead = 0
	}
	l.queued -= sz
	if l.queued <= l.params.ResumeBytes && len(l.waiters) > 0 {
		w := l.waiters
		l.waiters = l.waiters[:0]
		// Re-parks during the wakeups append into indices already consumed
		// by this loop (a waiter can only re-park after earlier waiters
		// refilled the backlog), so iterating the old slice is safe and
		// FIFO order is preserved.
		for _, tr := range w {
			l.port.pauseNs.AddInt(int64(tr.sh.eng.Now() - tr.parkedAt))
			tr.step()
		}
	}
}

// post queues the packet's next event, at l's far end, for the shard that
// owns it and retires this transit. The tiebreak key is drawn here, on the
// source engine, from the same domain sequence a serial run would use —
// that key is what makes the destination's replay land in exactly the
// serial position.
func (tr *transit) post(l *Link, when sim.Time, kind uint8, hop int32) {
	sh := tr.sh
	pin(&tr.p)
	key := sh.eng.AllocKey(l.toDomain)
	sh.out[l.toShard] = append(sh.out[l.toShard], crossMsg{
		when: when, key: key, owner: l.toDomain, kind: kind, hop: hop, p: tr.p,
	})
	sh.outPending++
	tr.release()
}

// CrossPending reports how many cross-shard messages are queued in outboxes.
// The shard coordinator reads it at window barriers — when no shard
// goroutine is running, so the per-shard counters are quiescent — to skip
// the drain pass (and the barrier bookkeeping around it) for windows that
// moved nothing across a cut.
func (n *Network) CrossPending() int {
	pending := 0
	for _, sh := range n.sh {
		pending += sh.outPending
	}
	return pending
}

// DrainCross delivers every queued cross-shard message into its destination
// engine, in (when, key) order per destination, and reports how many were
// delivered. The shard coordinator calls it at window barriers, when no
// shard goroutine is running; outside sharded runs there is nothing to
// drain.
func (n *Network) DrainCross() int {
	if n.CrossPending() == 0 {
		return 0
	}
	total := 0
	for d := range n.sh {
		// One pass finds the non-empty source boxes; a single-source window
		// (the common case under bursty traffic) sorts that box in place and
		// skips the merge copy entirely.
		src, multi := -1, false
		for s := range n.sh {
			if len(n.sh[s].out[d]) == 0 {
				continue
			}
			if src < 0 {
				src = s
			} else {
				multi = true
				break
			}
		}
		if src < 0 {
			continue
		}
		var buf []crossMsg
		if multi {
			buf = n.drainBuf[:0]
			for s := range n.sh {
				box := n.sh[s].out[d]
				if len(box) == 0 {
					continue
				}
				buf = append(buf, box...)
				n.sh[s].out[d] = box[:0]
			}
			n.drainBuf = buf
		} else {
			buf = n.sh[src].out[d]
		}
		n.drainSort.msgs = buf
		sort.Sort(&n.drainSort)
		dst := n.sh[d]
		for i := range buf {
			m := &buf[i]
			tr := dst.newTransit(n)
			tr.p = m.p
			if m.kind == crossHop {
				tr.setRoute()
				tr.i = m.hop
				tr.headAt = m.when
				tr.delivering = false
			} else {
				tr.delivering = true
			}
			dst.eng.AtKey(m.when, m.key, m.owner, tr.step)
		}
		total += len(buf)
		if multi {
			n.drainBuf = buf[:0]
		} else {
			n.sh[src].out[d] = buf[:0]
		}
	}
	for _, sh := range n.sh {
		sh.outPending = 0
	}
	return total
}

// deliver hands a fully-arrived packet to the destination NIC.
func (n *Network) deliver(p *Packet) {
	dst := n.hosts[p.Dst]
	if dst.Deliver == nil {
		panic(fmt.Sprintf("fabric: no receiver attached at %v", p.Dst))
	}
	dst.Deliver(p)
}

func (n *Network) dropped(p *Packet, l *Link) bool {
	if n.DropFn != nil && n.DropFn(p, l) {
		return true
	}
	if n.LossRate > 0 {
		if n.rng == nil {
			// Backstop for direct field assignment that bypassed
			// SetLossRate; the panic value satisfies errors.Is.
			panic(ErrLossRateWithoutRNG)
		}
		return n.rng.Bernoulli(n.LossRate)
	}
	return false
}

// shardState is the per-shard slice of the fabric's mutable state. Only the
// owning shard's goroutine touches it while the simulation runs; the
// coordinator drains out at window barriers, when no shard is running. Each
// is an allocation of its own, so no two shards' pools and outboxes share a
// cache line.
type shardState struct {
	id          int
	eng         *sim.Engine
	m           *shardInstruments // this shard's copy of the fabric-wide counters
	transitFree []*transit
	out         [][]crossMsg // outboxes, indexed by destination shard
	outPending  int          // total messages queued across out, reset at drains
}

// crossMsg is one packet event crossing a shard boundary: a wormhole hop
// landing on a vertex owned by another engine, or a final store-and-forward
// delivery to a host on another shard. The key was drawn on the source
// engine at the moment a serial run would have scheduled the event, so
// replaying the message with AtKey reproduces the serial timeline exactly.
type crossMsg struct {
	when  sim.Time
	key   uint64
	owner uint32
	kind  uint8 // crossHop or crossDeliver
	hop   int32 // route index to resume at (crossHop)
	p     Packet
}

const (
	crossHop = uint8(iota)
	crossDeliver
)

// crossSorter orders drained messages by (when, key) — the engine's own
// ordering — via a pre-boxed sort.Interface so draining allocates nothing.
type crossSorter struct{ msgs []crossMsg }

func (s *crossSorter) Len() int      { return len(s.msgs) }
func (s *crossSorter) Swap(i, j int) { s.msgs[i], s.msgs[j] = s.msgs[j], s.msgs[i] }
func (s *crossSorter) Less(i, j int) bool {
	a, b := &s.msgs[i], &s.msgs[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.key < b.key
}

// New allocates the network shell on eng; topology builders fill it in with
// AddSwitch/AddHost/Connect and install routing with SetRoute, then call
// SetMetrics(nil) to arm the accounting instruments.
func New(eng *sim.Engine, params LinkParams) *Network {
	n := &Network{
		eng:    eng,
		params: params,
		shards: 1,
	}
	n.sh = []*shardState{{eng: eng}}
	return n
}

// AddSwitch adds a switching vertex with the given diagnostic label.
// Vertices must be added in a deterministic order: each one claims the next
// tiebreak-key domain, and serial/sharded equivalence depends on identical
// domain assignment.
func (n *Network) AddSwitch(label string) *Vertex { return n.addVertex(label) }

// AddHost adds host id attached to sw, returning its interface and the
// up (host->switch) and down (switch->host) links. Hosts must be added in
// ascending id order with no gaps; the host's vertex is labeled "host<id>".
func (n *Network) AddHost(id NodeID, sw *Vertex) (ifc *Iface, up, down *Link) {
	if int(id) != len(n.hosts) {
		panic(fmt.Sprintf("fabric: AddHost(%v) out of order, want host %d next", id, len(n.hosts)))
	}
	hv := n.addVertex(hostLabel(id))
	hv.host = true
	hv.hostID = id
	up, down = n.Connect(hv, sw)
	ifc = &Iface{net: n, id: id, up: up, down: down}
	n.hosts = append(n.hosts, ifc)
	return ifc, up, down
}

// hostLabel spells "host<id>" in one allocation, without fmt: a cluster
// builds one per host.
func hostLabel(id NodeID) string {
	var b [24]byte
	return string(strconv.AppendInt(append(b[:0], "host"...), int64(id), 10))
}

// Connect adds a pair of directed links between a and b with the fabric's
// default link parameters.
func (n *Network) Connect(a, b *Vertex) (ab, ba *Link) {
	return n.ConnectWith(a, b, n.params)
}

// ConnectWith adds a pair of directed links between a and b with explicit
// link parameters — the builder hook for heterogeneous fabrics (e.g. long
// inter-rack runs slower than intra-rack links). The partitioner sees the
// per-link latency, so its lookahead matrix and the lookahead-maximizing
// objective work per link, not per fabric.
func (n *Network) ConnectWith(a, b *Vertex, params LinkParams) (ab, ba *Link) {
	id := int32(len(n.links))
	pair := &[2]Link{
		{from: a, to: b, params: params, fac: sim.NewFacility(n.eng), toDomain: b.domain, fromDomain: a.domain, id: id},
		{from: b, to: a, params: params, fac: sim.NewFacility(n.eng), toDomain: a.domain, fromDomain: b.domain, id: id + 1},
	}
	ab, ba = &pair[0], &pair[1]
	if params.PauseBytes > 0 {
		ab.drainFn = ab.drain
		ba.drainFn = ba.drain
	}
	a.out = append(a.out, ab)
	b.out = append(b.out, ba)
	n.links = append(n.links, ab, ba)
	return ab, ba
}

// SetRoute installs the topology's routing function: fn appends the link
// numbers (Link.ID) from src to dst, at most MaxHops of them, to route and
// returns the result. It must be deterministic and must not keep route: the
// fabric calls it for every packet, into the packet's transit record.
func (n *Network) SetRoute(fn func(route []int32, src, dst NodeID) []int32) { n.routeFn = fn }

// SingleSwitch builds a fabric with all hosts on one crossbar — the shape
// of the paper's 16-node testbed (one Myrinet-2000 Xbar16), and the
// standard two-node harness for NIC and firmware unit tests.
func SingleSwitch(eng *sim.Engine, hosts int, params LinkParams) *Network {
	if hosts < 1 {
		panic("fabric: need at least one host")
	}
	n := New(eng, params)
	sw := n.AddSwitch("xbar0")
	for i := 0; i < hosts; i++ {
		n.AddHost(NodeID(i), sw)
	}
	n.SetRoute(func(r []int32, src, dst NodeID) []int32 {
		if src == dst {
			panic("fabric: route to self")
		}
		return append(r, n.hosts[src].up.id, n.hosts[dst].down.id)
	})
	n.SetMetrics(nil)
	return n
}

func (n *Network) addVertex(label string) *Vertex {
	v := &Vertex{idx: len(n.verts), label: label, domain: uint32(len(n.verts) + 1)}
	n.verts = append(n.verts, v)
	// Every vertex is a tiebreak-key domain, registered up front so serial
	// and sharded runs draw identical keys.
	n.eng.GrowDomains(len(n.verts))
	return v
}
