package core

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Ext is the multicast firmware extension for one NIC. Install installs it
// into the GM firmware's extension hook: its packets run on gm's packet
// descriptors and send tokens, and it fills the slot gm's stage machine
// leaves empty for unicast (Look, Left, AckTurn, Enqueue).
type Ext struct {
	nic *gm.NIC
	cfg Config
	// groups is the group table in install order. A NIC belongs to a
	// handful of groups, so a lookup scans the IDs, held beside the
	// entries (four to a cache line), and follows one pointer.
	groups []tableSlot
	coll   Collective // NIC-resident collective engine (internal/coll)
	m      *instruments
}

// Install loads the multicast extension onto a GM NIC with its cost and
// mode configuration (DefaultConfig is the calibrated one). Multicast
// counters are filed in the registry wired via the hardware NIC's
// SetMetrics; when none is wired, the extension counts into a block of its
// own.
func Install(nic *gm.NIC, cfg Config) *Ext {
	e := &Ext{nic: nic, cfg: cfg}
	e.m = metrics.Attach[instruments](nic.HW.Registry(), Component, int(nic.ID()))
	nic.SetExtension(e)
	return e
}

// FromNIC returns the extension installed on a NIC.
func FromNIC(nic *gm.NIC) *Ext {
	e, ok := nic.Extension().(*Ext)
	if !ok {
		panic(fmt.Errorf("%w: NIC %v", ErrNoExtension, nic.ID()))
	}
	return e
}

// NIC returns the firmware NIC the extension runs on.
func (e *Ext) NIC() *gm.NIC { return e.nic }

// Groups reports how many group-table entries are installed.
func (e *Ext) Groups() int { return len(e.groups) }

// HasGroup reports whether a group is installed.
func (e *Ext) HasGroup(id gm.GroupID) bool { return e.group(id) != nil }

// tableSlot is one entry of the group table.
type tableSlot struct {
	id gm.GroupID
	g  *group
}

// group returns the table entry for id, or nil.
func (e *Ext) group(id gm.GroupID) *group {
	for _, s := range e.groups {
		if s.id == id {
			return s.g
		}
	}
	return nil
}

// GroupEpoch reports a group's active epoch (0 for static groups and for
// unknown groups) and whether the entry is live — a joining NIC's staged
// entry exists but is not live until its first commit.
func (e *Ext) GroupEpoch(id gm.GroupID) (epoch uint32, live bool) {
	if g := e.group(id); g != nil {
		return g.epoch, g.live
	}
	return 0, false
}

// QuiesceGroup runs fn (in firmware context) as soon as the group's
// outstanding send-side work — unretired send records and packets still
// staging or replicating — has drained; immediately if it already has, or
// if the group is unknown. The callback fires at the exact firmware event
// that retires the last record, with no race window and no polling traffic.
func (e *Ext) QuiesceGroup(id gm.GroupID, fn func()) {
	e.nic.HW.HostPost(func() {
		e.nic.HW.CPUDo(e.cfg.GroupInstallCost, func() {
			g := e.group(id)
			if g == nil {
				if fn != nil {
					fn()
				}
				return
			}
			e.m.quiesceReqs.Inc()
			g.onQuiesce(func() {
				if fn != nil {
					fn()
				}
			})
		})
	})
}

// OutstandingRecords reports unretired multicast send records across all
// groups, plus packets still staging toward a record — zero once every
// child of every packet has acknowledged.
func (e *Ext) OutstandingRecords() int {
	n := 0
	for _, s := range e.groups {
		if snd := s.g.snd; snd != nil {
			n += snd.win.Len() + snd.staging
		}
	}
	return n
}

// PendingGroupTimers reports how many group retransmit timers are armed —
// nonzero after quiescence means a leaked timer.
func (e *Ext) PendingGroupTimers() int {
	armed := 0
	for _, s := range e.groups {
		if snd := s.g.snd; snd != nil && snd.win.Armed() {
			armed++
		}
	}
	return armed
}

// PendingAckTimers reports how many per-group delayed-ack timers are
// armed — nonzero after quiescence means a coalesced aggregate ack was
// never flushed (Config.AggregateAcks).
func (e *Ext) PendingAckTimers() int {
	armed := 0
	for _, s := range e.groups {
		if s.g.hold.Armed() {
			armed++
		}
	}
	return armed
}

// InstallGroup preposts one group's tree information into the NIC group
// table — "the host generates a spanning tree and inserts it into a group
// table stored in the NIC". port is the local port that receives the
// group's messages; rootPort is the sending port at the root. The tree
// must satisfy the ID-sorted deadlock invariant. fn, if non-nil, runs when
// the entry is live.
func (e *Ext) InstallGroup(id gm.GroupID, tr *tree.Tree, port, rootPort gm.PortID, fn func()) {
	e.InstallGroupEpoch(id, tr, port, rootPort, 0, fn)
}

// InstallGroupEpoch is InstallGroup with the entry tagged to a specific
// epoch — the initial installation path of the dynamic-membership
// subsystem (internal/member), whose later updates arrive through
// PrepareGroupEpoch/CommitGroupEpoch. Static groups use epoch 0.
func (e *Ext) InstallGroupEpoch(id gm.GroupID, tr *tree.Tree, port, rootPort gm.PortID, epoch uint32, fn func()) {
	if err := tr.Validate(); err != nil {
		panic(fmt.Errorf("%w: group %d: %v", ErrInvalidTree, id, err))
	}
	e.nic.HW.HostPost(func() {
		e.nic.HW.CPUDo(e.cfg.GroupInstallCost, func() {
			if e.group(id) != nil {
				panic(fmt.Errorf("%w: group %d at %v", ErrGroupInstalled, id, e.nic.ID()))
			}
			g := localView(e, id, tr, port, rootPort)
			g.epoch = epoch
			e.groups = append(e.groups, tableSlot{id, g})
			if fn != nil {
				fn()
			}
		})
	})
}

// PrepareGroupEpoch stages the next epoch's view of a group without
// activating it — phase one of the two-phase membership roll. A nil tree
// stages this node's departure. On a NIC without an entry (a joining
// node) a non-live entry is created: it accepts no traffic until the
// commit. Staging freezes a root's pump at message boundaries, so no
// message straddles the epoch change. The staged epoch must advance the
// live entry's epoch (serial-number order); fn runs when the stage is in
// the table.
func (e *Ext) PrepareGroupEpoch(id gm.GroupID, tr *tree.Tree, port, rootPort gm.PortID, epoch uint32, fn func()) {
	if tr != nil {
		if err := tr.Validate(); err != nil {
			panic(fmt.Errorf("%w: group %d: %v", ErrInvalidTree, id, err))
		}
	}
	e.nic.HW.HostPost(func() {
		e.nic.HW.CPUDo(e.cfg.GroupInstallCost, func() {
			g := e.group(id)
			if g == nil {
				if tr == nil {
					panic(fmt.Errorf("%w: preparing departure of group %d at %v",
						ErrNoSuchGroup, id, e.nic.ID()))
				}
				g = localView(e, id, tr, port, rootPort)
				g.live = false
				g.epoch = epoch
				e.groups = append(e.groups, tableSlot{id, g})
			} else if g.live && !gm.EpochAfter(epoch, g.epoch) {
				panic(fmt.Errorf("%w: group %d at %v prepared for epoch %d, live epoch is %d",
					ErrEpochRegressed, id, e.nic.ID(), epoch, g.epoch))
			}
			g.next = &pendingView{
				epoch: epoch, remove: tr == nil, tr: tr,
				port: port, rootPort: rootPort,
			}
			// Freezing the pump may itself complete a pending quiesce
			// (queued-but-unstarted messages now belong to the next epoch).
			g.checkQuiesce()
			if fn != nil {
				fn()
			}
		})
	})
}

// CommitGroupEpoch activates a staged view — phase two of the membership
// roll, issued by the coordinator only after every old-epoch member has
// quiesced. The entry must be drained (no records, nothing staging);
// committing a busy entry panics, because the coordinator's quiesce phase
// is what guarantees no old-epoch frame is ever attributed to the new
// sequence space. A staged departure deletes the entry; a staged update
// activates it and restarts a frozen root pump, whose queued messages
// flow in the new epoch. fn runs after activation.
func (e *Ext) CommitGroupEpoch(id gm.GroupID, epoch uint32, fn func()) {
	e.nic.HW.HostPost(func() {
		e.nic.HW.CPUDo(e.cfg.GroupInstallCost, func() {
			g := e.group(id)
			if g == nil {
				panic(fmt.Errorf("%w: committing group %d at %v", ErrNoSuchGroup, id, e.nic.ID()))
			}
			v := g.next
			if v == nil || v.epoch != epoch {
				panic(fmt.Errorf("%w: group %d at %v has no prepared view for epoch %d",
					ErrNotPrepared, id, e.nic.ID(), epoch))
			}
			if s := g.snd; s != nil && (s.win.Len() > 0 || s.staging > 0) {
				panic(fmt.Errorf("%w: committing epoch %d of group %d at %v with %d records, %d staging",
					ErrGroupBusy, epoch, id, e.nic.ID(), s.win.Len(), s.staging))
			}
			if v.remove {
				if s := g.snd; s != nil && len(s.queue) > 0 {
					panic(fmt.Errorf("%w: removing group %d at %v with %d queued send tokens",
						ErrGroupBusy, id, e.nic.ID(), len(s.queue)))
				}
				e.dropGroup(g)
			} else {
				g.activate(v)
				e.m.epochCommits.Inc()
				if g.isRoot() {
					g.pump()
				}
			}
			if fn != nil {
				fn()
			}
		})
	})
}

// dropGroup deletes a drained entry from the table. A coalesced receipt
// floor is flushed first: the final ack lets the (old-epoch) parent retire
// cleanly. The retransmit timer needs no stop — the window disarms it when
// its last record retires, and a drained entry has none.
func (e *Ext) dropGroup(g *group) {
	g.hold.Flush()
	i := slices.Index(e.groups, tableSlot{g.id, g})
	e.groups = slices.Delete(e.groups, i, i+1)
}

// HandleRx implements gm.Extension: collective frames are consumed here;
// multicast data goes on to gm, whose descriptor brings it to Look.
func (e *Ext) HandleRx(src fabric.NodeID, fr *gm.Frame) bool {
	switch fr.Kind {
	case gm.KindBarrier, gm.KindReduce, gm.KindGather, gm.KindRing:
		if e.coll != nil {
			return e.coll.HandleRx(src, fr)
		}
		// No collective engine wired: consume (these kinds belong to the
		// extension's identifier space) and count the drop.
		e.m.notMemberDrops.Inc()
		return true
	default:
		return false
	}
}

// HandleCtl implements gm.Extension for control packets: collective acks
// are consumed by the collective engine; group (n)acks go on to gm, whose
// descriptor brings them to AckTurn.
func (e *Ext) HandleCtl(src fabric.NodeID, c fabric.Ctl) bool {
	switch gm.Kind(c.Kind) {
	case gm.KindBarrierAck, gm.KindReduceAck, gm.KindGatherAck, gm.KindRingAck:
		if e.coll != nil {
			return e.coll.HandleCtl(src, c)
		}
		e.m.notMemberDrops.Inc()
		return true
	default:
		return false
	}
}

// Look is the receive processing of one arriving multicast packet
// (gm.Extension): sequence-check against the group's receive sequence
// number, deliver to the local host buffer, and — the heart of the scheme —
// requeue it to this node's children straight from the NIC receive buffer,
// without host involvement and without waiting for the rest of the message.
// Every path that does not accept the packet returns buffer and descriptor
// together.
func (e *Ext) Look(d *gm.Desc) {
	nic, fr, src := e.nic, d.Frame(), d.Src()
	g := e.group(fr.Group)
	if g == nil {
		// A departed NIC has no entry at all; a dynamic-epoch frame
		// reaching one is acked-as-dropped so the sender's window never
		// deadlocks on a node that left. Static (epoch 0) traffic keeps
		// the silent not-a-member drop. Epoch 0 is RESERVED for static
		// groups — the membership coordinator skips it when its epoch
		// counter wraps past MaxUint32 — so this test stays a correct
		// static/dynamic discriminator for arbitrarily long-lived groups.
		e.m.notMemberDrops.Inc()
		if fr.Epoch != 0 {
			e.ackDropped(src, fr)
		}
		d.Done()
		return
	}
	if !g.accepts(fr.Epoch) {
		e.dropEpochMismatch(g, src, fr)
		d.Done()
		return
	}
	switch {
	case gm.SeqBefore(fr.Seq, g.recvSeq):
		e.m.duplicates.Inc()
		if e.cfg.AggregateAcks {
			// The cumulative field must carry the subtree floor, never
			// the local receipt floor: re-acking recvSeq-1 would retire
			// parent records for packets this subtree has not delivered,
			// and root completion would stop implying tree delivery.
			e.reAckAggregate(g)
		} else {
			e.ackParent(g, g.recvSeq-1)
		}
		d.Done()
	case gm.SeqAfter(fr.Seq, g.recvSeq):
		e.m.oooDrops.Inc()
		if nic.Cfg.EnableNacks {
			if e.cfg.AggregateAcks {
				g.hold.Absorb()
				e.nackParent(g, g.ackBound())
			} else {
				e.nackParent(g, g.recvSeq-1)
			}
		}
		d.Done()
	default:
		port := nic.Port(g.port)
		asm, ok := port.MatchAssembly(g.root, fr)
		if !ok {
			// No receive token: refuse; the parent retransmits.
			// "The responsibility of making receive tokens available
			// ... is left to client programs."
			e.m.noTokenDrops.Inc()
			d.Done()
			return
		}
		g.recvSeq++
		e.m.mcastReceived.Inc()
		if nic.Trace.Enabled() {
			nic.Trace.Log(nic.Engine().Now(), nic.ID(), trace.RX, "%s", fr.Wire(src, nic.ID()))
		}
		if e.cfg.AggregateAcks {
			e.noteDelivered(g)
		} else {
			e.ackParent(g, fr.Seq)
		}

		// The NIC buffer stays busy until the payload reaches host
		// memory AND (for per-packet forwarding) the last child
		// replica has been transmitted.
		forwarding := len(g.children) > 0 && e.cfg.Forward == ForwardPerPacket
		d.Land(asm, forwarding)
		switch {
		case forwarding:
			e.forward(g, d)
		case len(g.children) > 0:
			// Store-and-forward ablation: queue until the whole
			// message has arrived, then forward from host memory.
			e.storeAndForward(g, fr)
		}
	}
}

// forward requeues a received packet to the node's children. The receive
// token is transformed into a send token (no draw from the free send-token
// pool — the paper's deadlock-avoiding choice), the forwarded packet keeps
// its group sequence number, and a send record per child is created so
// timeouts retransmit from the host replica. In the RetransmitHoldBuffer
// ablation the NIC receive buffer is instead pinned until every child
// acknowledges. The replica chain is Left's.
func (e *Ext) forward(g *group, d *gm.Desc) {
	fr := d.Frame()
	g.snd.sendSeq = fr.Seq
	g.snd.staging++ // in flight toward children until g.file files it
	if fr.Offset+len(fr.Payload) < fr.MsgLen {
		// The message's tail has not arrived yet — this forward is the
		// per-packet pipelining the paper's scheme exists to enable.
		e.m.fwdBeforeFull.Inc()
	}
	e.m.fanout.Observe(int64(len(g.children)))
	d.SendAfter(e.cfg.ForwardSetupCost, 0, g.children[0])
}

// Left is the transmit callback of a multicast packet's descriptor
// (gm.Extension). For a packet staged from host memory without a
// destination (Child -1) the set-up is done: it joins the group's replica
// chains. Otherwise the transmit engine is done with the replica for child
// Child: "change the packet header and queue it for transmission again" for
// the next child, or, after the last, file one send record covering them
// all. A retransmission, and in the ModeTokens ablation each destination's
// send, is one replica on a descriptor of its own.
func (e *Ext) Left(d *gm.Desc) {
	if d.Resent() {
		d.Done()
		e.m.mcastSent.Inc()
		return
	}
	fr, tok, i := d.Frame(), d.Token(), d.Child()
	g := e.group(fr.Group) // staging holds the entry: no drop, no commit
	if i < 0 {
		g.enqueueChain(d)
		return
	}
	e.m.mcastSent.Inc()
	if tok == nil {
		e.m.mcastForwarded.Inc()
	}
	last := i+1 == len(g.children)
	if tok != nil && e.cfg.Multisend == ModeTokens {
		// The replicas go in child order (every stage on the way is FIFO),
		// so the last child's is the last to leave.
		d.Done()
		if last {
			g.snd.staging--
			g.file(fr, mcastSent{tok: tok})
			g.pump()
		}
		return
	}
	if last {
		g.lastReplicaLeft(d)
		return
	}
	e.m.headerRewrites.Inc()
	d.SendAfter(e.cfg.HeaderRewriteCost, i+1, g.children[i+1])
}

// sfState gathers a message's packets in the store-and-forward ablation.
type sfState struct {
	frames []*gm.Frame
	got    int
}

// storeAndForward queues an accepted packet; when the last byte of the
// message has arrived, every packet is re-read from the host replica and
// forwarded in order — what NIC-based per-packet pipelining avoids.
func (e *Ext) storeAndForward(g *group, fr *gm.Frame) {
	s := g.snd
	if s.sf == nil {
		s.sf = make(map[uint64]*sfState)
	}
	st := s.sf[fr.MsgID]
	if st == nil {
		st = &sfState{}
		s.sf[fr.MsgID] = st
	}
	st.frames = append(st.frames, fr)
	st.got += len(fr.Payload)
	if st.got < fr.MsgLen {
		return
	}
	delete(s.sf, fr.MsgID)
	for _, f := range st.frames {
		s.sendSeq = f.Seq
		s.staging++
		e.nic.Stage(f, nil, e.cfg.ForwardSetupCost)
	}
}

// dropEpochMismatch refuses a multicast data frame from another epoch.
// Stale frames (an epoch the entry has moved past) are acked-as-dropped
// back to whoever transmitted them, carrying the frame's own epoch: a
// sender still holding old-epoch send records retires them instead of
// retransmitting into a view that will never accept them. Frames from a
// future epoch — data racing ahead of this NIC's commit, or anything
// aimed at a staged-but-not-live joining entry — are dropped silently;
// the parent's retransmission arrives after the commit lands. The
// stale/future split is serial-number arithmetic (gm.EpochBefore), so a
// group whose epoch counter wraps past MaxUint32 keeps classifying
// correctly — a raw < here would ack brand-new post-wrap frames as stale
// and silently starve the group.
func (e *Ext) dropEpochMismatch(g *group, src fabric.NodeID, fr *gm.Frame) {
	if g.live && gm.EpochBefore(fr.Epoch, g.epoch) {
		e.m.staleEpochDrops.Inc()
		e.ackDropped(src, fr)
		return
	}
	e.m.futureEpochDrops.Inc()
}

// ackDropped acknowledges a refused stale-epoch frame to src, the NIC that
// transmitted it, under the frame's own epoch — "acked as dropped". The
// cumulative ack retires the sender's record for this packet (and everything
// before it, which the departed receiver equally will never take).
func (e *Ext) ackDropped(src fabric.NodeID, fr *gm.Frame) {
	e.m.ackedAsDropped.Inc()
	e.m.acksSent.Inc()
	e.sendCtl(gm.KindMcastAck, src, fr.Group, fr.Epoch, fr.Seq)
}

// noteDelivered runs the aggregation state machine after this node
// accepted one in-sequence packet (Config.AggregateAcks): a leaf
// coalesces its receipt floor under gm's AckEvery/AckDelay bounds, an
// interior node stays silent — its per-packet ack is absorbed into the
// aggregate that goes up when child acks advance the subtree floor.
func (e *Ext) noteDelivered(g *group) {
	if g.isRoot() {
		return
	}
	if len(g.children) > 0 {
		e.m.acksAggregated.Inc()
		return
	}
	if !e.nic.Cfg.AckCoalescing() {
		e.ackUp(g)
		return
	}
	g.hold.Note()
}

// ackUp emits the aggregate cumulative acknowledgment upward when the
// subtree floor has advanced past what the parent already knows.
func (e *Ext) ackUp(g *group) {
	bound := g.ackBound()
	if !gm.SeqAfter(bound, g.upAcked) {
		return
	}
	g.upAcked = bound
	e.ackParent(g, bound)
}

// reAckAggregate answers a duplicate under aggregation: the parent is
// retransmitting, so repeat the current subtree floor even when it has
// not advanced, folding in any coalesced leaf pending first.
func (e *Ext) reAckAggregate(g *group) {
	g.hold.Absorb()
	bound := g.ackBound()
	if gm.SeqAfter(bound, g.upAcked) {
		g.upAcked = bound
	}
	e.ackParent(g, bound)
}

// ackParent sends a cumulative group acknowledgment toward the root.
func (e *Ext) ackParent(g *group, ack uint32) {
	if g.isRoot() {
		return
	}
	e.m.acksSent.Inc()
	e.sendCtl(gm.KindMcastAck, g.parent, g.id, g.epoch, ack)
}

// nackParent asks the tree parent for an immediate per-group go-back (fast
// recovery; the parent's send window bounds how often it honours one).
func (e *Ext) nackParent(g *group, lastGood uint32) {
	if g.isRoot() {
		return
	}
	e.m.nacksSent.Inc()
	e.sendCtl(gm.KindMcastNack, g.parent, g.id, g.epoch, lastGood)
}

// sendCtl transmits a group ack or nack: a control packet, its few fields
// by value in the wire packet (gm.NIC.InjectCtl), so there is nothing to
// allocate here and nothing for the receiver to hand back.
func (e *Ext) sendCtl(kind gm.Kind, to fabric.NodeID, group gm.GroupID, epoch, ack uint32) {
	e.nic.InjectCtl(to, fabric.Ctl{Kind: uint8(kind), Group: uint32(group), Epoch: epoch, Ack: ack})
}

// AckTurn processes a group acknowledgment or negative acknowledgment from
// one child when its turn on the LANai comes (gm.Extension): honor the
// cumulative part and, for a nack, retransmit to the unacknowledged children
// immediately, bounded by the holdoff.
func (e *Ext) AckTurn(child fabric.NodeID, group gm.GroupID, epoch, ack uint32, nack bool) {
	g := e.group(group)
	if g == nil {
		return // stale ack for a group we no longer know
	}
	if !g.accepts(epoch) {
		// An ack or nack minted under another epoch must not touch this
		// epoch's sequence space — each commit resets it, so the raw
		// numbers would alias.
		e.m.staleEpochAcks.Inc()
		return
	}
	if nack {
		e.m.nacksRecv.Inc()
	} else {
		e.m.acksRecv.Inc()
	}
	g.handleAck(child, ack)
	if nack && g.snd != nil {
		g.snd.win.Nack()
	}
	if e.cfg.AggregateAcks {
		// A child's progress (even a nack's cumulative part) may advance
		// this subtree's floor; forward the aggregate right away so the
		// root's window keeps moving.
		e.ackUp(g)
	}
}

// Enqueue admits a root send token to its group's queue once the LANai has
// processed the send event (gm.Extension), and starts the pump.
func (e *Ext) Enqueue(t *gm.Token) {
	g := e.group(t.Group())
	if g == nil {
		panic(fmt.Errorf("%w: Mcast on group %d at %v", ErrNoSuchGroup, t.Group(), e.nic.ID()))
	}
	if !g.isRoot() {
		panic(fmt.Errorf("%w: group %d at %v", ErrNotRoot, t.Group(), e.nic.ID()))
	}
	g.snd.queue = append(g.snd.queue, t)
	g.pump()
}
