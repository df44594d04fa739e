package core

// Internal regression test for the group recovery path: group
// sequence-number wraparound under loss. It builds the stack by hand (core
// cannot import cluster) so it can reach into group state. The send
// window's own rules are pinned in gm's window_test.go.

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/golden"
	"repro/internal/lanai"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

type coreRig struct {
	eng   *sim.Engine
	net   *fabric.Network
	exts  []*Ext
	ports []*gm.Port
}

func newCoreRig(t *testing.T, nodes int, mut func(*gm.Config)) *coreRig {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, nodes, fabric.DefaultLinkParams())
	gcfg := gm.DefaultConfig()
	if mut != nil {
		mut(&gcfg)
	}
	r := &coreRig{eng: eng, net: net}
	for i := 0; i < nodes; i++ {
		hw := lanai.New(eng, net.Iface(fabric.NodeID(i)), lanai.DefaultParams())
		nic := gm.NewNIC(hw, gcfg)
		r.exts = append(r.exts, Install(nic, DefaultConfig()))
		r.ports = append(r.ports, nic.OpenPort(1))
	}
	return r
}

// installGroup preposts the tree on every member and drains the install
// events.
func (r *coreRig) installGroup(t *testing.T, tr *tree.Tree) {
	t.Helper()
	done := 0
	for _, n := range tr.Nodes() {
		r.exts[n].InstallGroup(1, tr, 1, 1, func() { done++ })
	}
	r.eng.Run()
	if done != tr.Size() {
		t.Fatalf("group installed on %d of %d members", done, tr.Size())
	}
}

// TestGroupSequenceWraparoundUnderLoss streams a multicast past the uint32
// sequence wrap down a 2-ary tree with deterministic loss. Raw ordered
// comparisons would strand the forwarders (post-wrap packets look "old"
// and cumulative acks look "behind"); serial-number arithmetic must
// deliver every message to every receiver and retire every record.
func TestGroupSequenceWraparoundUnderLoss(t *testing.T) {
	const nodes = 4
	r := newCoreRig(t, nodes, nil)
	stream := golden.Hook([]*sim.Engine{r.eng})
	members := make([]fabric.NodeID, nodes)
	for i := range members {
		members[i] = fabric.NodeID(i)
	}
	tr := tree.KAry(0, members, 2) // node 1 is an interior forwarder
	r.installGroup(t, tr)

	const start = uint32(0xFFFFFFFB) // five packets before the wrap
	rec := trace.NewRecorder()
	for _, e := range r.exts {
		e.nic.Trace = rec
		g := e.group(1)
		if g == nil {
			t.Fatal("group not installed")
		}
		g.recvSeq = start
		if s := g.snd; s != nil { // a leaf has no sender side
			s.sendSeq = start - 1 // pump pre-increments: first packet gets start
			s.win.Reset(len(g.children), start-1)
		}
	}

	traversals := 0
	r.net.DropFn = func(p *fabric.Packet, _ *fabric.Link) bool {
		if fr, ok := p.Payload.(*gm.Frame); ok && fr.Kind == gm.KindMcastData {
			traversals++
			return traversals%6 == 0 // deterministic loss straddling the wrap
		}
		return false
	}

	const msgs = 4
	msg := make([]byte, 3*4096) // three packets each: 12 packets, wrapping
	for i := range msg {
		msg[i] = byte(i*13 + 5)
	}
	recvd := make([]int, nodes)
	for n := 1; n < nodes; n++ {
		n := n
		r.eng.Spawn("recv", func(p *sim.Proc) {
			r.ports[n].ProvideN(msgs, len(msg))
			for i := 0; i < msgs; i++ {
				ev := r.ports[n].Recv(p)
				if !bytes.Equal(ev.Data, msg) {
					t.Errorf("node %d: message %d corrupted across the wrap", n, i)
				}
				recvd[n]++
			}
		})
	}
	r.eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r.exts[0].Mcast(p, r.ports[0], 1, msg)
		}
		for i := 0; i < msgs; i++ {
			r.ports[0].WaitSendDone(p)
		}
	})
	// Bounded run: the pre-fix comparison bug retransmits forever rather
	// than failing, so Run() would hang the suite.
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	live := r.eng.LiveProcs()
	r.eng.Kill()
	if live != 0 {
		t.Fatalf("%d processes still blocked after 1s — multicast deadlocked at the wrap", live)
	}
	for n := 1; n < nodes; n++ {
		if recvd[n] != msgs {
			t.Fatalf("node %d received %d of %d messages", n, recvd[n], msgs)
		}
	}
	for i, e := range r.exts {
		if out := e.OutstandingRecords(); out != 0 {
			t.Fatalf("node %d leaked %d multicast records across the wrap", i, out)
		}
		g := e.group(1)
		if i > 0 && gm.SeqAfter(start, g.recvSeq) {
			t.Fatalf("node %d never crossed the wrap: recvSeq=%d", i, g.recvSeq)
		}
	}
	// Packet timeline and event count of this run, captured before the
	// group send window was shared with gm: the wrap must not just survive, it must
	// recover by the same retransmissions at the same instants.
	var buf bytes.Buffer
	rec.WriteTimeline(&buf)
	golden.Check(t, "TestGroupSequenceWraparoundUnderLoss", "kary2-4nodes-loss6th", golden.Capture{
		Clock: r.eng.Now(), Events: r.eng.EventsFired(), Trace: buf.Bytes(), Stream: stream()})
}
