//go:build race

package gm

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// The negative control for the poison: a host-based forwarder that releases
// its event before the Send reading ev.Data has completed is caught — the
// next hop's payload check sees the poison, not the message. (Without the
// poison the stale bytes would still compare equal and the bug would pass.)
func TestEarlyReleaseIsCaught(t *testing.T) {
	r := newRig(t, 3, nil)
	msg := pattern(3000)
	var atForwarder, atLeaf []byte
	r.eng.Spawn("forwarder", func(p *sim.Proc) {
		r.ports[1].Provide(len(msg))
		ev := r.ports[1].Recv(p)
		atForwarder = append([]byte(nil), ev.Data...)
		r.ports[1].Keep(ev)
		r.ports[1].Send(p, 2, 1, ev.Data)
		r.ports[1].Release(ev) // the bug: the send has only been posted
	})
	r.eng.Spawn("leaf", func(p *sim.Proc) {
		r.ports[2].Provide(len(msg))
		atLeaf = append([]byte(nil), r.ports[2].Recv(p).Data...)
	})
	r.eng.Spawn("root", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, msg)
	})
	r.run(t)
	if !bytes.Equal(atForwarder, msg) {
		t.Fatal("the forwarder itself received a corrupted message")
	}
	if bytes.Equal(atLeaf, msg) {
		t.Fatal("an early release went unnoticed: the leaf still received the message intact")
	}
	if !bytes.Equal(atLeaf, bytes.Repeat([]byte{poisonByte}, len(msg))) {
		t.Errorf("the leaf received neither the message nor the poison")
	}
}

// The negative control for the loan: a receiver that reads ev.Data after its
// next Recv has taken the event back sees the poison, not the message. (The
// second message is the larger, so it cannot land in the first one's buffer
// and hide the read.) The companion half shows that the rule is the loan and
// nothing else: an event kept across the receive after it holds its message.
func TestReadPastNextRecvIsCaught(t *testing.T) {
	r := newRig(t, 2, nil)
	first, second := pattern(1000), pattern(3000)
	var data []byte
	var kept *RecvEvent
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].ProvideN(2, len(second))
		data = r.ports[1].Recv(p).Data
		kept = r.ports[1].Recv(p) // the bug: data is read after this
		r.ports[1].Keep(kept)
		r.ports[1].TryRecv()
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].SendSync(p, 1, 1, first)
		r.ports[0].SendSync(p, 1, 1, second)
	})
	r.run(t)
	if bytes.Equal(data, first) {
		t.Fatal("a read past the next Recv went unnoticed: the data is still intact")
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{poisonByte}, len(first))) {
		t.Errorf("the lent buffer holds neither the message nor the poison")
	}
	if !bytes.Equal(kept.Data, second) {
		t.Error("a kept event was poisoned by the receive after it")
	}
}
