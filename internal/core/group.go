package core

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// mcastToken is the firmware descriptor for one outgoing multicast message
// at the root — the analogue of a GM send token, "queued by group".
type mcastToken struct {
	data    []byte
	msgID   uint64
	nextOff int
	pending int // packets with at least one unacknowledged child
	staged  bool
	onDone  func()
	// onEpoch, when non-nil, fires once with the group epoch the message
	// stages under. A token never straddles epochs: an epoch change freezes
	// the pump at message boundaries, so the first chunk's epoch is the
	// whole message's epoch.
	onEpoch func(epoch uint32)
	stamped bool
}

func (t *mcastToken) remaining() int { return len(t.data) - t.nextOff }

// mcastRecord is the send record for one multicast packet: one sequence
// number shared by every child, with the set of children that have not yet
// acknowledged it. Retransmission reads the payload from the host-memory
// replica (the frame keeps the registered host slice).
type mcastRecord struct {
	seq     uint32
	frame   *gm.Frame
	sentAt  sim.Time
	pending map[fabric.NodeID]bool
	tok     *mcastToken // non-nil at the root
	// release, when non-nil, frees the pinned NIC receive buffer on
	// retirement (RetransmitHoldBuffer ablation).
	release func()
}

// group is one NIC's group-table entry: this node's place in the preposted
// spanning tree plus the paper's per-group sequence state — "1) a receive
// sequence number ... 2) a send sequence number ... 3) an array of
// sequence numbers to record the acknowledged sequence number from each
// child".
type group struct {
	ext      *Ext
	id       gm.GroupID
	root     fabric.NodeID
	parent   fabric.NodeID
	children []fabric.NodeID
	port     gm.PortID // local port receiving this group's messages
	rootPort gm.PortID // port the root sends from (stable across hops)

	// Sender side (root, or forwarder toward its children).
	sendSeq uint32
	acked   []uint32 // parallel to children
	records []*mcastRecord
	queue   []*mcastToken // root only: multicast send tokens by group
	staging int
	// timer is the reusable group retransmit timer (see conn.timer in gm).
	timer *sim.Timer

	// lastFast is when the last nack-triggered retransmission fired;
	// fastArmed distinguishes "never fired" from "fired at sim time 0"
	// (a bare zero-check would let a t=0 nack burst defeat the holdoff).
	lastFast  sim.Time
	fastArmed bool
	// backoff counts consecutive timeouts; the retransmit interval doubles
	// with each until the configured cap, resetting on ack progress.
	backoff int

	// Replica chains (one per packet) execute strictly in sequence at the
	// root: interleaving packet k+1's first replica ahead of packet k's
	// later replicas would starve the later children's subtrees of early
	// packets and defeat pipelined forwarding.
	chains      []func()
	chainActive bool

	// Receiver side.
	recvSeq uint32 // next expected from parent

	// Ack aggregation (Config.AggregateAcks). upAcked is the highest
	// cumulative value this node has sent its parent; a leaf additionally
	// coalesces its receipt floor — ackPending counts accepted packets not
	// yet acknowledged upward, and ackTimer bounds the hold (gm's
	// AckEvery/AckDelay). Interior nodes need no timer: their aggregate
	// advances only when child acks arrive, and is emitted right then.
	upAcked    uint32
	ackPending int
	ackTimer   *sim.Timer

	// sf gathers per-message packets in the store-and-forward ablation.
	sf map[uint64]*sfState

	// Dynamic membership (internal/member). epoch tags the active view;
	// data and acks carry it so frames from another epoch are rejected.
	// live is false for an entry staged by a joining node before its first
	// commit: the view exists (so a commit can activate it) but accepts no
	// traffic. next holds the prepared-but-uncommitted view; while it is
	// non-nil the root pump freezes at message boundaries so no message
	// straddles the epoch change. quiesceFns run when the entry's
	// outstanding send work has drained (see quiescedNow).
	epoch      uint32
	live       bool
	next       *pendingView
	quiesceFns []func()
}

func (g *group) isRoot() bool { return g.root == g.ext.nic.ID() }

// pendingView is a prepared-but-uncommitted group-table update: the next
// epoch's tree neighborhood (or, with a nil tree, the node's departure).
type pendingView struct {
	epoch    uint32
	remove   bool
	tr       *tree.Tree
	port     gm.PortID
	rootPort gm.PortID
}

// localView extracts this NIC's tree neighborhood from a full tree.
func localView(ext *Ext, id gm.GroupID, tr *tree.Tree, port, rootPort gm.PortID) *group {
	g := &group{
		ext:      ext,
		id:       id,
		port:     port,
		rootPort: rootPort,
		sendSeq:  0,
		recvSeq:  1,
		live:     true,
	}
	g.setNeighbors(tr)
	g.timer = ext.nic.Engine().NewTimer(g.onTimeout)
	if ext.cfg.AggregateAcks && ext.nic.Cfg.AckCoalescing() {
		g.ackTimer = ext.nic.Engine().NewTimer(func() { ext.flushAckUp(g) })
	}
	return g
}

// setNeighbors points the entry at this NIC's place in tr with nothing
// acknowledged. The child list is the tree's own (trees are immutable);
// only the per-child ack array is allocated, and not at all for a leaf.
func (g *group) setNeighbors(tr *tree.Tree) {
	self := g.ext.nic.ID()
	g.root = tr.Root
	g.children = tr.Children(self)
	g.acked = make([]uint32, len(g.children))
	if p, ok := tr.Parent(self); ok {
		g.parent = p
	} else {
		g.parent = self
	}
}

// windowOpen mirrors the unicast window: outstanding multicast packets per
// group are bounded by the same configuration.
func (g *group) windowOpen() bool {
	return len(g.records)+g.staging < g.ext.nic.Cfg.Window
}

// enqueue admits a root send token and starts the pump.
func (g *group) enqueue(t *mcastToken) {
	if !g.isRoot() {
		panic("core: multicast send token enqueued at non-root")
	}
	g.queue = append(g.queue, t)
	g.pump()
}

// pump stages packets at the root: one SDMA per chunk, then a replica
// transmitted to each child through the header-rewrite callback chain.
// While an epoch change is prepared (g.next non-nil) the pump freezes at
// message boundaries: the message being staged finishes in its epoch, but
// no new message starts, so the commit can reset the sequence space
// without ever splitting one message across two epochs.
func (g *group) pump() {
	nic := g.ext.nic
	for len(g.queue) > 0 && g.windowOpen() {
		t := g.queue[0]
		if g.next != nil && t.nextOff == 0 {
			break // frozen for an epoch change; resume after commit
		}
		if !t.stamped {
			t.stamped = true
			if t.onEpoch != nil {
				t.onEpoch(g.epoch)
			}
		}
		chunk := t.remaining()
		if chunk > nic.Cfg.MTU {
			chunk = nic.Cfg.MTU
		}
		g.sendSeq++
		fr := &gm.Frame{
			Kind:    gm.KindMcastData,
			SrcNode: nic.ID(),
			SrcPort: g.rootPort,
			DstPort: g.port,
			Seq:     g.sendSeq,
			MsgID:   t.msgID,
			MsgLen:  len(t.data),
			Offset:  t.nextOff,
			Group:   g.id,
			Epoch:   g.epoch,
		}
		if chunk > 0 {
			fr.Payload = t.data[t.nextOff : t.nextOff+chunk]
		}
		t.nextOff += chunk
		t.pending++
		if t.remaining() == 0 {
			t.staged = true
			g.queue = g.queue[1:]
		}
		g.staging++
		g.stageRoot(fr, t)
	}
}

// stageRoot runs one packet through the root's multisend path. In the
// implemented ModeCallback, it acquires one send buffer, downloads the
// chunk from the host once (the SDMA of the next chunk overlaps the
// previous chunk's replica chain), then replicates in strict packet order.
// In the ModeTokens ablation, each destination gets its own firmware send
// token with its own buffer, DMA and per-token processing.
func (g *group) stageRoot(fr *gm.Frame, t *mcastToken) {
	if g.ext.cfg.Multisend == ModeTokens {
		g.stageRootTokens(fr, t)
		return
	}
	nic := g.ext.nic
	nic.HW.SendBufs.Acquire(func(buf bufToken) {
		nic.HW.HostToNIC(len(fr.Payload), func() {
			nic.HW.CPUDo(nic.Cfg.TxSetupCost, func() {
				g.enqueueChain(func() {
					g.replicate(fr, buf, func() {
						g.staging--
						g.recordSent(fr, t)
						g.nextChain()
						g.pump()
					})
				})
			})
		})
	})
}

// stageRootTokens implements design alternative 1: one send token per
// destination, each repeating the token processing and host DMA. It saves
// only the posting of multiple host send events relative to host-based
// multiple unicasts.
func (g *group) stageRootTokens(fr *gm.Frame, t *mcastToken) {
	nic := g.ext.nic
	remaining := len(g.children)
	g.ext.m.fanout.Observe(int64(remaining))
	if remaining == 0 {
		g.staging--
		g.recordSent(fr, t)
		g.pump()
		return
	}
	for _, c := range g.children {
		child := c
		nic.HW.CPUDo(nic.Cfg.SendEventCost, func() { // per-token processing
			nic.HW.SendBufs.Acquire(func(buf bufToken) {
				nic.HW.HostToNIC(len(fr.Payload), func() {
					nic.HW.CPUDo(nic.Cfg.TxSetupCost, func() {
						replica := fr.Clone()
						replica.SrcNode = nic.ID()
						replica.DstNode = child
						nic.Inject(replica, func() {
							buf.Release()
							g.ext.m.mcastSent.Inc()
							remaining--
							if remaining == 0 {
								g.staging--
								g.recordSent(fr, t)
								g.pump()
							}
						})
					})
				})
			})
		})
	}
}

// enqueueChain runs fn now if no replica chain is active, else queues it.
// Chains enqueue in packet order (the SDMA and CPU stages are FIFO), so
// packets replicate to the children strictly in sequence.
func (g *group) enqueueChain(fn func()) {
	if g.chainActive {
		g.chains = append(g.chains, fn)
		return
	}
	g.chainActive = true
	fn()
}

// nextChain starts the next queued replica chain, if any.
func (g *group) nextChain() {
	if len(g.chains) == 0 {
		g.chainActive = false
		return
	}
	fn := g.chains[0]
	g.chains = g.chains[1:]
	fn()
}

// replicate transmits fr to every child in tree order from a single NIC
// buffer: when the transmit engine finishes one replica, the callback
// handler rewrites the header (HeaderRewriteCost) and requeues the buffer
// for the next destination. The buffer is released after the last replica,
// then done runs.
func (g *group) replicate(fr *gm.Frame, buf bufToken, done func()) {
	nic := g.ext.nic
	children := g.children
	g.ext.m.fanout.Observe(int64(len(children)))
	if len(children) == 0 {
		buf.Release()
		done()
		return
	}
	var sendTo func(i int)
	sendTo = func(i int) {
		replica := fr.Clone()
		replica.SrcNode = nic.ID()
		replica.DstNode = children[i]
		nic.Inject(replica, func() {
			g.ext.m.mcastSent.Inc()
			if i+1 == len(children) {
				buf.Release()
				done()
				return
			}
			g.ext.m.headerRewrites.Inc()
			nic.HW.CPUDo(g.ext.cfg.HeaderRewriteCost, func() { sendTo(i + 1) })
		})
	}
	sendTo(0)
}

// recordSent files the send record covering all children and arms the
// group's retransmit timer.
func (g *group) recordSent(fr *gm.Frame, t *mcastToken) {
	r := &mcastRecord{
		seq: fr.Seq, frame: fr, sentAt: g.ext.nic.Engine().Now(),
		pending: g.pendingChildren(fr.Seq), tok: t,
	}
	if len(r.pending) == 0 {
		// No children (degenerate group), or every child acked before the
		// transmit callback ran: complete immediately.
		g.retire(r)
		g.checkQuiesce()
		return
	}
	g.records = append(g.records, r)
	g.armTimer()
}

// pendingChildren builds the unacknowledged-children set for a new record,
// honoring acknowledgments that raced ahead of the transmit callback.
func (g *group) pendingChildren(seq uint32) map[fabric.NodeID]bool {
	pending := make(map[fabric.NodeID]bool, len(g.children))
	for i, c := range g.children {
		if gm.SeqBefore(g.acked[i], seq) {
			pending[c] = true
		}
	}
	return pending
}

// ackBound reports the highest sequence number this node's entire subtree
// is known to have delivered: the node's own receipt floor serial-min'd
// with every child's cumulative acknowledgment. This is the value an
// aggregating node forwards upward (Config.AggregateAcks).
func (g *group) ackBound() uint32 {
	bound := g.recvSeq - 1
	for _, a := range g.acked {
		if gm.SeqBefore(a, bound) {
			bound = a
		}
	}
	return bound
}

// handleAck processes a cumulative group acknowledgment from one child.
// Sequence comparisons use serial-number arithmetic so long-lived groups
// survive the uint32 wrap.
func (g *group) handleAck(child fabric.NodeID, ack uint32) {
	// Fan-outs are small: scanning the child list beats hashing the ID.
	if i := slices.Index(g.children, child); i >= 0 && gm.SeqAfter(ack, g.acked[i]) {
		g.acked[i] = ack
	}
	for _, r := range g.records {
		if gm.SeqLEQ(r.seq, ack) {
			delete(r.pending, child)
		}
	}
	// Cumulative acks make fully-acknowledged records a prefix, but retire
	// by predicate anyway; order among survivors is preserved.
	now := g.ext.nic.Engine().Now()
	out := g.records[:0]
	retired := false
	for _, r := range g.records {
		if len(r.pending) == 0 {
			g.ext.m.ackLatencyNs.Observe(int64(now - r.sentAt))
			g.retire(r)
			retired = true
			continue
		}
		out = append(out, r)
	}
	g.records = out
	if retired {
		g.backoff = 0 // forward progress resets the backoff
	}
	g.armTimer()
	if g.isRoot() {
		g.pump()
	}
	g.checkQuiesce()
}

// retire completes a record; at the root this may finish the send token,
// and in the hold-buffer ablation it frees the pinned receive buffer.
func (g *group) retire(r *mcastRecord) {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	if r.tok == nil {
		return
	}
	r.tok.pending--
	if r.tok.staged && r.tok.pending == 0 && r.tok.onDone != nil {
		r.tok.onDone()
	}
}

// armTimer mirrors the unicast connection timer (including exponential
// backoff) over group records.
func (g *group) armTimer() {
	eng := g.ext.nic.Engine()
	if len(g.records) == 0 {
		g.timer.Stop()
		g.backoff = 0
		return
	}
	capf := g.ext.nic.Cfg.BackoffCap
	if capf <= 0 {
		capf = 64
	}
	mult := 1 << min(g.backoff, 30)
	if mult > capf {
		mult = capf
	}
	rto := g.ext.nic.Cfg.RetransmitTimeout
	if g.ext.cfg.AggregateAcks && g.ext.nic.Cfg.AckCoalescing() {
		// A coalescing leaf may lawfully sit on its aggregate ack for the
		// full delay; a timer that does not budget for it retransmits
		// spuriously into a healthy tree.
		rto += g.ext.nic.Cfg.EffectiveAckDelay()
	}
	deadline := g.records[0].sentAt + rto*sim.Time(mult)
	if deadline < eng.Now() {
		deadline = eng.Now()
	}
	g.timer.Reset(deadline)
}

// onTimeout retransmits, per child, every outstanding packet that child
// has not acknowledged — "the retransmission of the packet and the
// following ones will be performed only for the destinations which have
// not acknowledged". Data comes back over SDMA from the host replica; the
// NIC receive buffer was released long ago.
func (g *group) onTimeout() {
	if len(g.records) == 0 {
		return
	}
	g.backoff++
	nic := g.ext.nic
	g.ext.m.timeouts.Inc()
	now := nic.Engine().Now()
	for _, r := range g.records {
		r.sentAt = now
		for _, c := range g.children {
			if !r.pending[c] {
				continue
			}
			child := c
			fr := r.frame
			g.ext.m.retransmits.Inc()
			if nic.Trace.Enabled() {
				nic.Trace.Log(nic.Engine().Now(), nic.ID(), trace.Retrans,
					"grp=%d seq=%d to unacked child %v", g.id, fr.Seq, child)
			}
			nic.HW.CPUDo(nic.Cfg.RetransmitCost, func() {
				nic.HW.SendBufs.Acquire(func(buf bufToken) {
					nic.HW.HostToNIC(len(fr.Payload), func() {
						replica := fr.Clone()
						replica.SrcNode = nic.ID()
						replica.DstNode = child
						nic.Inject(replica, func() {
							buf.Release()
							g.ext.m.mcastSent.Inc()
						})
					})
				})
			})
		}
	}
	g.armTimer()
}

// fastRetransmit performs an immediate per-child go-back in response to a
// group nack, at most once per holdoff.
func (g *group) fastRetransmit() {
	now := g.ext.nic.Engine().Now()
	if len(g.records) == 0 {
		return
	}
	if g.fastArmed && now-g.lastFast < g.ext.nic.Cfg.NackHoldoff {
		return
	}
	g.fastArmed = true
	g.lastFast = now
	g.onTimeout()
}

// quiescedNow reports whether the entry's outstanding send-side work has
// drained: no unretired send records, no packets staging or mid-replica-
// chain. Queued root send tokens only block quiescence when no epoch
// change is prepared — a frozen pump holds whole messages back for the
// next epoch, so they are not old-epoch work.
func (g *group) quiescedNow() bool {
	return len(g.records) == 0 && g.staging == 0 &&
		(g.next != nil || len(g.queue) == 0)
}

// onQuiesce runs fn as soon as the entry is quiesced — immediately when it
// already is. Firmware-context counterpart of Ext.QuiesceGroup.
func (g *group) onQuiesce(fn func()) {
	if g.quiescedNow() {
		fn()
		return
	}
	g.quiesceFns = append(g.quiesceFns, fn)
}

// checkQuiesce fires registered quiesce callbacks once the entry drains.
// Called wherever records retire or staging completes.
func (g *group) checkQuiesce() {
	if len(g.quiesceFns) == 0 || !g.quiescedNow() {
		return
	}
	fns := g.quiesceFns
	g.quiesceFns = nil
	for _, fn := range fns {
		fn()
	}
}

// activate installs a prepared view as the entry's live state: the next
// epoch's tree neighborhood, with the per-epoch sequence space reset. The
// entry must be drained (CommitGroupEpoch checks).
func (g *group) activate(v *pendingView) {
	g.setNeighbors(v.tr)
	g.port, g.rootPort = v.port, v.rootPort
	g.epoch = v.epoch
	g.live = true
	g.sendSeq, g.recvSeq = 0, 1
	g.backoff = 0
	g.fastArmed = false
	g.lastFast = 0
	// The aggregate floor belongs to the old epoch's sequence space; the
	// coordinator's quiesce phase guarantees nothing is pending here.
	g.upAcked = 0
	g.ackPending = 0
	if g.ackTimer != nil {
		g.ackTimer.Stop()
	}
	g.next = nil
}

func (g *group) String() string {
	return fmt.Sprintf("group %d @%v root=%v parent=%v children=%v",
		g.id, g.ext.nic.ID(), g.root, g.parent, g.children)
}
