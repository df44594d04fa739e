//go:build !race

package core_test

import (
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Counts, not time (the race detector allocates on its own, so these are
// left out of -race builds).

// streamAllocs multicasts msgs one-packet messages down a 3-level binary
// tree of 7 nodes whose receivers release every event, and reports the heap
// objects and bytes the whole run allocated. A run during which the runtime
// started an OS thread is measured again: the thread's records are runtime
// allocations (5 objects, 5 KB), not the stream's, and under load one can
// land in any window.
func streamAllocs(t *testing.T, msgs int) (objects, bytes uint64) {
	t.Helper()
	for {
		threads := pprof.Lookup("threadcreate").Count()
		objects, bytes = streamAllocsOnce(t, msgs)
		if pprof.Lookup("threadcreate").Count() == threads {
			return objects, bytes
		}
	}
}

func streamAllocsOnce(t *testing.T, msgs int) (objects, bytes uint64) {
	t.Helper()
	const nodes = 7
	c := cluster.New(nodes)
	ports := c.OpenPorts(testPort)
	c.InstallGroup(21, tree.KAry(0, c.Members(), 2), testPort, testPort)
	c.Run()
	msg := pattern(1024)
	got := 0
	for n := 1; n < nodes; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(len(msg))
			for i := 0; i < msgs; i++ {
				ev := ports[n].Recv(p)
				got++
				ports[n].Release(ev)
				ports[n].Provide(len(msg))
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			c.Nodes[0].Ext.McastSync(p, ports[0], 21, msg)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Eng.Run()
	runtime.ReadMemStats(&after)
	c.Eng.Kill()
	if got != msgs*(nodes-1) {
		t.Fatalf("%d deliveries, want %d", got, msgs*(nodes-1))
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// One multicast packet crossing one hop of the tree costs the heap one
// object, the receiving process's place in its wait queue, plus its share of
// the root's per-message costs: the packet's one frame — the pointer every
// forwarder passes on and every leaf reads — and the root process's own waits
// (a third of an object per hop here). Not a replica frame per child and an
// ack frame per receiver on top (3.5 objects and 253 B), nor a closure per
// firmware step, a *lanai.Buf and a *fabric.Packet on top of those (16 objects
// and 752 B before descriptors). Differencing runs of three lengths takes
// set-up and warm-up out; holding the early and the late window to the same
// bound shows the cost does not creep as the run goes on (the bytes are wait-
// queue slots, which come in doubling sizes, so the two windows differ by a
// few bytes either way).
func TestAllocPerPacketHop(t *testing.T) {
	const hops = 6 // per message: one per non-root member
	o50, b50 := streamAllocs(t, 50)
	o100, b100 := streamAllocs(t, 100)
	o150, b150 := streamAllocs(t, 150)
	per := func(hi, lo uint64) float64 { return float64(hi-lo) / (50 * hops) }
	earlyObj, lateObj := per(o100, o50), per(o150, o100)
	earlyB, lateB := per(b100, b50), per(b150, b100)
	t.Logf("per packet-hop: messages 51-100 %.2f objects %.0f B, messages 101-150 %.2f objects %.0f B",
		earlyObj, earlyB, lateObj, lateB)
	for _, w := range []struct {
		window   string
		obj, byt float64
	}{{"early", earlyObj, earlyB}, {"late", lateObj, lateB}} {
		if w.obj > 1.5 || w.byt > 32 {
			t.Errorf("%s in the run a packet-hop allocates %.2f objects / %.0f B, want at most 1.50 / 32", w.window, w.obj, w.byt)
		}
	}
}

// A free list is live heap at its high-water mark, on every NIC. A burst of
// one 8-packet message on each of four groups at once — every NIC forwarding
// for some of them, four of them roots as well — must leave no NIC holding
// more descriptors than it has receive buffers, and all of them idle.
func TestAllocDescriptorFreeListIsBoundedByBuffers(t *testing.T) {
	const nodes, groups, msgs = 16, 4, 1
	c := cluster.New(nodes)
	ports := c.OpenPorts(testPort)
	for g := 0; g < groups; g++ {
		// A different root per group, so most NICs forward for some group.
		c.InstallGroup(gm.GroupID(30+g), tree.Binomial(fabric.NodeID(g*4), c.Members()), testPort, testPort)
	}
	c.Run()
	msg := pattern(32 << 10)
	for n := 0; n < nodes; n++ {
		n := n
		own := 0
		if n%4 == 0 {
			own = 1 // a root does not receive its own group
		}
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			want := (groups - own) * msgs
			ports[n].ProvideN(want, len(msg))
			for i := 0; i < want; i++ {
				ports[n].Release(ports[n].Recv(p))
			}
		})
	}
	for g := 0; g < groups; g++ {
		g := g
		c.Eng.Spawn("root", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				c.Nodes[g*4].Ext.Mcast(p, ports[g*4], gm.GroupID(30+g), msg)
			}
			for i := 0; i < msgs; i++ {
				ports[g*4].WaitSendDone(p)
			}
		})
	}
	c.Eng.Run()
	c.Eng.Kill()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("%d processes never finished", live)
	}
	most := 0
	for _, n := range c.Nodes {
		free, made := n.Ext.Descriptors()
		if free != made {
			t.Errorf("%v: %d of %d descriptors on the free list after the burst", n.ID, free, made)
		}
		if limit := n.HW.RecvBufs.Cap(); made > limit {
			t.Errorf("%v made %d descriptors, more than its %d receive buffers", n.ID, made, limit)
		}
		most = max(most, made)
	}
	t.Logf("largest free list: %d descriptors", most)
	if most == 0 {
		t.Error("no descriptor was ever made")
	}
}
