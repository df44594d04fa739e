package gm

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestDirectedSendWritesRemoteRegion(t *testing.T) {
	r := newRig(t, 2, nil)
	var rid RegionID
	data := pattern(10000) // multi-packet put
	landing := make([]byte, len(data))
	r.eng.Spawn("recv", func(p *sim.Proc) {
		rid = r.ports[1].RegisterRegion(landing)
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond) // let registration happen
		r.ports[0].DirectedSendSync(p, 1, 1, 1, 0, data)
	})
	r.run(t)
	if !bytes.Equal(landing, data) {
		t.Fatal("directed write corrupted")
	}
	if got := r.ports[1].RegionWritten(rid); got != len(data) {
		t.Fatalf("region written %d bytes, want %d", got, len(data))
	}
	// Directed sends are silent at the receiver.
	if r.ports[1].PendingRecvs() != 0 {
		t.Fatal("directed send generated a receive event")
	}
}

func TestDirectedSendAtOffset(t *testing.T) {
	r := newRig(t, 2, nil)
	landing := make([]byte, 100)
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].RegisterRegion(landing)
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		r.ports[0].DirectedSendSync(p, 1, 1, 1, 40, []byte{7, 8, 9})
	})
	r.run(t)
	if landing[40] != 7 || landing[41] != 8 || landing[42] != 9 {
		t.Fatalf("offset write landed wrong: %v", landing[38:45])
	}
	if landing[0] != 0 || landing[43] != 0 {
		t.Fatal("bytes outside the written range were touched")
	}
}

func TestDirectedSendOutOfBoundsRefused(t *testing.T) {
	// A write past the region's end must be refused, never deposited. The
	// sender's go-back-N keeps retrying, so the send never completes —
	// protection turns a bad peer into a stalled peer, not corruption.
	r := newRig(t, 2, nil)
	completed := false
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].RegisterRegion(make([]byte, 50))
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		r.ports[0].DirectedSend(p, 1, 1, 1, 40, pattern(20)) // 40+20 > 50
	})
	r.eng.RunUntil(5 * sim.Millisecond)
	r.eng.Kill()
	if completed {
		t.Fatal("out-of-bounds directed send completed")
	}
	if r.counter(t, 1, "directed_refused") == 0 {
		t.Fatal("out-of-bounds write not counted as refused")
	}
	if got := r.ports[1].RegionWritten(1); got != 0 {
		t.Fatalf("%d bytes landed outside bounds", got)
	}
}

func TestDirectedSendUnknownRegionRefused(t *testing.T) {
	r := newRig(t, 2, nil)
	r.eng.Spawn("send", func(p *sim.Proc) {
		r.ports[0].DirectedSend(p, 1, 1, 999, 0, pattern(16))
	})
	r.eng.RunUntil(3 * sim.Millisecond)
	r.eng.Kill()
	if r.counter(t, 1, "directed_refused") == 0 {
		t.Fatal("write to unknown region not refused")
	}
}

func TestDirectedSendUnderLoss(t *testing.T) {
	r := newRig(t, 2, nil)
	r.net.SetRNG(sim.NewRNG(31))
	r.net.LossRate = 0.05
	data := pattern(20000)
	landing := make([]byte, len(data))
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].RegisterRegion(landing)
	})
	done := false
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		r.ports[0].DirectedSendSync(p, 1, 1, 1, 0, data)
		done = true
	})
	r.run(t)
	if !done {
		t.Fatal("directed send never completed under loss")
	}
	if !bytes.Equal(landing, data) {
		t.Fatal("directed write corrupted under loss")
	}
}

func TestDirectedAndNormalSendsShareOrdering(t *testing.T) {
	// Directed and normal traffic between the same ports ride one
	// sequence space; both complete and neither corrupts the other.
	r := newRig(t, 2, nil)
	landing := make([]byte, 5000)
	var msg []byte
	r.eng.Spawn("recv", func(p *sim.Proc) {
		r.ports[1].RegisterRegion(landing)
		r.ports[1].Provide(256)
		msg = r.ports[1].Recv(p).Data
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		r.ports[0].DirectedSend(p, 1, 1, 1, 0, pattern(5000))
		r.ports[0].SendSync(p, 1, 1, []byte("after-the-put"))
	})
	r.run(t)
	if string(msg) != "after-the-put" {
		t.Fatalf("normal send corrupted: %q", msg)
	}
	if !bytes.Equal(landing, pattern(5000)) {
		t.Fatal("directed write corrupted")
	}
}

func TestDeregisterRegionRefusesLateWrites(t *testing.T) {
	r := newRig(t, 2, nil)
	var rid RegionID
	r.eng.Spawn("recv", func(p *sim.Proc) {
		rid = r.ports[1].RegisterRegion(make([]byte, 100))
		p.Sleep(5 * sim.Microsecond)
		r.ports[1].DeregisterRegion(rid)
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond) // after deregistration
		r.ports[0].DirectedSend(p, 1, 1, rid, 0, pattern(10))
	})
	r.eng.RunUntil(3 * sim.Millisecond)
	r.eng.Kill()
	if r.counter(t, 1, "directed_refused") == 0 {
		t.Fatal("write to deregistered region not refused")
	}
}

func TestDeregisterUnknownRegionPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("deregistering unknown region did not panic")
		}
	}()
	r.ports[0].DeregisterRegion(12345)
}

func TestDirectedSendToSelfPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	r.eng.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("directed send to self did not panic")
			}
		}()
		r.ports[0].DirectedSend(p, 0, 1, 1, 0, []byte{1})
	})
	r.run(t)
}
