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

// mcastSent is what a multicast send record (one sequence number shared by
// every child; see gm.Window) hands back when the packet retires.
// Retransmission reads the payload from the host-memory replica (the
// record's frame keeps the registered host slice).
type mcastSent struct {
	tok *gm.Token // non-nil at the root
	// held, when non-nil, is the descriptor whose NIC receive buffer stays
	// pinned until retirement (RetransmitHoldBuffer ablation).
	held *gm.Desc
}

// group is one NIC's group-table entry: this node's place in the preposted
// spanning tree plus the paper's per-group sequence state — "1) a receive
// sequence number ... 2) a send sequence number ... 3) an array of
// sequence numbers to record the acknowledged sequence number from each
// child". A leaf needs only the first, so every member keeps the receive
// side and only a node that sends — the root, or an interior node
// forwarding to its children — has a sender side.
type group struct {
	ext      *Ext
	id       gm.GroupID
	root     fabric.NodeID
	parent   fabric.NodeID
	children []fabric.NodeID
	port     gm.PortID // local port receiving this group's messages
	rootPort gm.PortID // port the root sends from (stable across hops)

	// Receiver side.
	recvSeq uint32 // next expected from parent

	// Ack aggregation (Config.AggregateAcks). upAcked is the highest
	// cumulative value this node has sent its parent; a leaf additionally
	// coalesces its receipt floor in hold (gm's AckEvery/AckDelay), made
	// only for such a leaf. Interior nodes never hold: their aggregate
	// advances only when child acks arrive, and is emitted right then.
	upAcked uint32
	hold    *gm.AckHold

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

	// snd is the sender side, nil at a leaf. An epoch commit that moves
	// the node between leaf and interior makes or drops it.
	snd *sender
}

// sender is the sender side of a group entry (root, or forwarder toward its
// children): the send sequence number and the go-back-N window whose ack
// vector runs parallel to the entry's children.
type sender struct {
	sendSeq uint32
	win     gm.Window[mcastSent]
	queue   []*gm.Token // root only: multicast send tokens by group
	staging int

	// Replica chains (one per packet) execute strictly in sequence at the
	// root: interleaving packet k+1's first replica ahead of packet k's
	// later replicas would starve the later children's subtrees of early
	// packets and defeat pipelined forwarding.
	chains      []*gm.Desc
	chainActive bool

	// sf gathers per-message packets in the store-and-forward ablation.
	sf map[uint64]*sfState
}

func (g *group) isRoot() bool { return g.root == g.ext.nic.ID() }

// accepts reports whether a frame or (n)ack minted under epoch belongs to the
// entry's active view: the entry is live and that is its epoch.
func (g *group) accepts(epoch uint32) bool { return g.live && epoch == g.epoch }

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
		live:     true,
	}
	g.setNeighbors(tr)
	return g
}

// setNeighbors points the entry at this NIC's place in tr with a fresh
// sequence space and nothing acknowledged. The child list is the tree's own
// (trees are immutable). A node that sends gets a sender side — kept, with
// its window reset, if it had one — and a node that no longer sends drops
// its own, which must be idle; a coalescing leaf gets its ack hold, and
// any other node drops its hold (an epoch commit absorbs it first).
func (g *group) setNeighbors(tr *tree.Tree) {
	self := g.ext.nic.ID()
	g.root = tr.Root
	g.children = tr.Children(self)
	g.recvSeq = 1
	if p, ok := tr.Parent(self); ok {
		g.parent = p
	} else {
		g.parent = self
	}
	sends := g.isRoot() || len(g.children) > 0
	switch {
	case sends:
		if g.snd == nil {
			g.snd = g.newSender()
		}
		g.snd.sendSeq = 0
		g.snd.win.Reset(len(g.children), 0)
	case g.snd != nil:
		if g.snd.win.Len() > 0 || g.snd.staging > 0 {
			panic(fmt.Errorf("%w: group %d at %v becomes a leaf with %d records, %d staging",
				ErrGroupBusy, g.id, self, g.snd.win.Len(), g.snd.staging))
		}
		g.snd = nil
	}
	nic := g.ext.nic
	if sends || !g.ext.cfg.AggregateAcks || !nic.Cfg.AckCoalescing() {
		g.hold = nil
	} else if g.hold == nil {
		// Only a coalescing leaf under aggregation ever sits on a group ack.
		g.hold = new(gm.AckHold)
		g.hold.Init(nic.Engine(), &nic.Cfg, &g.ext.m.acksSuppressed, func() { g.ext.ackUp(g) })
	}
}

// newSender makes the sender side; its window has no children until Reset.
// Under aggregation the window's timer budgets for a coalescing leaf's held
// ack.
func (g *group) newSender() *sender {
	nic := g.ext.nic
	var ackBudget sim.Time
	if g.ext.cfg.AggregateAcks && nic.Cfg.AckCoalescing() {
		ackBudget = nic.Cfg.EffectiveAckDelay()
	}
	s := new(sender)
	s.win.Init(nic.Engine(), &nic.Cfg, ackBudget, &g.ext.m.timeouts, g.resend, g.retire)
	return s
}

// windowOpen bounds outstanding multicast packets per group by the same
// configuration as a unicast connection.
func (g *group) windowOpen() bool {
	return g.snd.win.Len()+g.snd.staging < g.ext.nic.Cfg.Window
}

// pump stages packets at the root: one SDMA per chunk, then a replica
// transmitted to each child through the header-rewrite callback chain.
// While an epoch change is prepared (g.next non-nil) the pump freezes at
// message boundaries: the message being staged finishes in its epoch, but
// no new message starts, so the commit can reset the sequence space
// without ever splitting one message across two epochs.
func (g *group) pump() {
	nic, s := g.ext.nic, g.snd
	for len(s.queue) > 0 && g.windowOpen() {
		t := s.queue[0]
		if !t.Begun() {
			if g.next != nil {
				break // frozen for an epoch change; resume after commit
			}
			// The first chunk's epoch is the whole message's: the freeze
			// above keeps a message from straddling an epoch change.
			t.StagesIn(g.epoch)
		}
		fr, last := t.NextFrame(nic.Cfg.MTU)
		s.sendSeq++
		fr.Kind, fr.SrcPort, fr.DstPort, fr.Seq = gm.KindMcastData, g.rootPort, g.port, s.sendSeq
		fr.Group, fr.Epoch = g.id, g.epoch
		if last {
			s.queue = slices.Delete(s.queue, 0, 1)
		}
		s.staging++
		g.stageRoot(fr, t)
	}
}

// stageRoot runs one packet through the root's multisend path. In the
// implemented ModeCallback, gm acquires one send buffer, downloads the chunk
// from the host once (the SDMA of the next chunk overlaps the previous
// chunk's replica chain) and sets it up, and Left then replicates in strict
// packet order — all on the packet's one descriptor. In the ModeTokens
// ablation (design alternative 1) each destination gets a send token of its
// own, with its own buffer, DMA and per-token processing: it saves only the
// posting of multiple host send events relative to host-based multiple
// unicasts.
func (g *group) stageRoot(fr *gm.Frame, t *gm.Token) {
	nic := g.ext.nic
	if g.ext.cfg.Multisend == ModeCallback {
		nic.Stage(fr, t, nic.Cfg.TxSetupCost)
		return
	}
	g.ext.m.fanout.Observe(int64(len(g.children)))
	if len(g.children) == 0 {
		g.snd.staging--
		g.file(fr, mcastSent{tok: t})
		g.pump()
		return
	}
	for i, c := range g.children {
		nic.StageTo(fr, t, i, c)
	}
}

// enqueueChain starts d's replica chain now if none is active, else queues
// it. Chains enqueue in packet order (the SDMA and CPU stages are FIFO), so
// packets replicate to the children strictly in sequence: when the transmit
// engine finishes one replica, the callback handler rewrites the header
// (HeaderRewriteCost) and requeues the same buffer for the next destination.
func (g *group) enqueueChain(d *gm.Desc) {
	s := g.snd
	if s.chainActive {
		s.chains = append(s.chains, d)
		return
	}
	s.chainActive = true
	g.startChain(d)
}

// nextChain starts the next queued replica chain, if any.
func (g *group) nextChain() {
	s := g.snd
	if len(s.chains) == 0 {
		s.chainActive = false
		return
	}
	d := s.chains[0]
	s.chains = slices.Delete(s.chains, 0, 1)
	g.startChain(d)
}

// startChain begins a packet's replica chain: it is the group's turn to
// transmit this packet to every child in tree order from its one NIC buffer.
func (g *group) startChain(d *gm.Desc) {
	if d.Token() != nil {
		g.ext.m.fanout.Observe(int64(len(g.children)))
		if len(g.children) == 0 {
			g.lastReplicaLeft(d)
			return
		}
	}
	d.Send(0, g.children[0])
}

// lastReplicaLeft ends the replica chain: the transmit engine is done with
// the buffer, and one send record covering every child is filed. A packet
// that came from host memory gives its send buffer back and lets the group's
// next chain run. A packet forwarded from the wire gives up the chain's use
// of the receive buffer — unless the RetransmitHoldBuffer ablation pins it
// until every child has acknowledged, in which case the send record takes
// that use over. The descriptor may be the frame's last holder, so the frame
// is held across its hand-over to the record.
func (g *group) lastReplicaLeft(d *gm.Desc) {
	fr, tok, fwd := d.Frame(), d.Token(), d.Forwarded()
	fr.Hold()
	g.snd.staging--
	sent := mcastSent{tok: tok}
	if fwd && g.ext.cfg.Retransmit == RetransmitHoldBuffer {
		sent.held = d
	} else {
		d.Done()
	}
	g.file(fr, sent)
	fr.Release()
	if !fwd {
		g.nextChain()
	}
	if tok != nil {
		g.pump()
	}
}

// file creates the send record covering all children for a packet whose
// last replica has just left the NIC.
func (g *group) file(fr *gm.Frame, sent mcastSent) {
	if !g.snd.win.Owed(fr.Seq) {
		// No children (degenerate group), or every child acked before the
		// last replica's transmit callback ran: complete immediately.
		g.complete(sent)
		g.checkQuiesce()
		return
	}
	g.snd.win.File(fr, sent)
}

// ackBound reports the highest sequence number this node's entire subtree
// is known to have delivered: the node's own receipt floor serial-min'd
// with every child's cumulative acknowledgment. This is the value an
// aggregating node forwards upward (Config.AggregateAcks). A leaf's is its
// receipt floor.
func (g *group) ackBound() uint32 {
	if g.snd == nil {
		return g.recvSeq - 1
	}
	return g.snd.win.Floor(g.recvSeq - 1)
}

// handleAck processes a cumulative group acknowledgment from one child
// (fan-outs are small: scanning the child list beats hashing the ID). The
// timer is re-armed on every ack, progress or not: the deadline does not
// move on a duplicate, but the timer's place among the events of its
// instant does, and pinned timelines depend on that order. A leaf has no
// child to hear from and no window to move.
func (g *group) handleAck(child fabric.NodeID, ack uint32) {
	if g.snd == nil {
		return
	}
	g.snd.win.Ack(slices.Index(g.children, child), ack)
	g.snd.win.Arm()
	if g.isRoot() {
		g.pump()
	}
	g.checkQuiesce()
}

// retire completes a record every child has acknowledged.
func (g *group) retire(r *gm.SendRecord[mcastSent]) {
	g.ext.m.ackLatencyNs.Observe(int64(g.snd.win.Age(r)))
	g.complete(r.Data)
}

// complete finishes one multicast packet; at the root this may finish the
// send token, and in the hold-buffer ablation it frees the pinned receive
// buffer.
func (g *group) complete(sent mcastSent) {
	if sent.held != nil {
		sent.held.Done()
	}
	if sent.tok != nil {
		sent.tok.Acked()
	}
}

// resend retransmits one outstanding packet to one child that has not
// acknowledged it. Data comes back over SDMA from the host replica; the NIC
// receive buffer was released long ago.
func (g *group) resend(fr *gm.Frame, i int) {
	nic := g.ext.nic
	child := g.children[i]
	g.ext.m.retransmits.Inc()
	if nic.Trace.Enabled() {
		nic.Trace.Log(nic.Engine().Now(), nic.ID(), trace.Retrans,
			"grp=%d seq=%d to unacked child %v", g.id, fr.Seq, child)
	}
	nic.Resend(fr, child)
}

// quiescedNow reports whether the entry's outstanding send-side work has
// drained: no unretired send records, no packets staging or mid-replica-
// chain. Queued root send tokens only block quiescence when no epoch
// change is prepared — a frozen pump holds whole messages back for the
// next epoch, so they are not old-epoch work. A leaf has none.
func (g *group) quiescedNow() bool {
	s := g.snd
	return s == nil || s.win.Len() == 0 && s.staging == 0 &&
		(g.next != nil || len(s.queue) == 0)
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
	// The aggregate floor belongs to the old epoch's sequence space; the
	// coordinator's quiesce phase guarantees nothing is held here. The hold
	// is absorbed before the new view may drop it.
	g.upAcked = 0
	g.hold.Absorb()
	g.setNeighbors(v.tr)
	g.port, g.rootPort = v.port, v.rootPort
	g.epoch = v.epoch
	g.live = true
	g.next = nil
}

func (g *group) String() string {
	return fmt.Sprintf("group %d @%v root=%v parent=%v children=%v",
		g.id, g.ext.nic.ID(), g.root, g.parent, g.children)
}
