package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tree"
)

// rollTo prepares and commits tr at epoch on every NIC of the rig, landing
// each phase everywhere before the next.
func (r *coreRig) rollTo(tr *tree.Tree, epoch uint32) {
	for _, e := range r.exts {
		e.PrepareGroupEpoch(1, tr, 1, 1, epoch, nil)
	}
	r.eng.Run()
	for _, e := range r.exts {
		e.CommitGroupEpoch(1, epoch, nil)
	}
	r.eng.Run()
}

// An epoch commit that moves a node between leaf and interior makes or
// drops its sender side. Node 2 is a leaf of a 2-ary tree; a commit to a
// chain makes it the forwarder to node 3, and with its first data frame to
// node 3 lost, its new window retransmits it. A commit back to the 2-ary
// tree makes it a leaf again, with no sender side left.
func TestEpochCommitMakesAndDropsSenderSide(t *testing.T) {
	r := newCoreRig(t, 4, nil)
	t.Cleanup(r.eng.Kill)
	members := []fabric.NodeID{0, 1, 2, 3}
	kary, chain := tree.KAry(0, members, 2), tree.Chain(0, members)
	r.installGroup(t, kary)
	hasSender := func() (out [4]bool) {
		for i, e := range r.exts {
			out[i] = e.group(1).snd != nil
		}
		return out
	}
	if got, want := hasSender(), [4]bool{true, true, false, false}; got != want {
		t.Fatalf("sender sides on the 2-ary tree %v, want %v", got, want)
	}

	r.rollTo(chain, 1)
	if got, want := hasSender(), [4]bool{true, true, true, false}; got != want {
		t.Fatalf("sender sides after the commit to a chain %v, want %v", got, want)
	}
	dropped := false
	r.net.DropFn = func(p *fabric.Packet, _ *fabric.Link) bool {
		if !dropped && p.Src == 2 && p.Dst == 3 && p.Payload != nil {
			dropped = true
			return true
		}
		return false
	}
	msg := make([]byte, 256)
	got := 0
	for n := 1; n < 4; n++ {
		r.eng.Spawn("recv", func(p *sim.Proc) {
			r.ports[n].Provide(len(msg))
			r.ports[n].Recv(p)
			got++
		})
	}
	r.eng.Spawn("root", func(p *sim.Proc) { r.exts[0].McastSync(p, r.ports[0], 1, msg) })
	r.eng.Run()
	if !dropped || got != 3 {
		t.Fatalf("dropped %v, %d of 3 deliveries", dropped, got)
	}
	if n := r.exts[2].m.retransmits.Value(); n == 0 {
		t.Error("the promoted node never retransmitted the lost frame")
	}
	if n := r.exts[2].OutstandingRecords(); n != 0 {
		t.Errorf("the promoted node holds %d records after the message completed", n)
	}

	r.rollTo(kary, 2)
	if got, want := hasSender(), [4]bool{true, true, false, false}; got != want {
		t.Fatalf("sender sides after the commit back to the 2-ary tree %v, want %v", got, want)
	}
}
