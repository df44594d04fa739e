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

// streamAllocs multicasts msgs messages of size bytes down a binary tree of
// nodes nodes whose receivers release every event, and reports the heap
// objects and bytes the whole run allocated. The root posts as fast as its
// send tokens come back, and each receiver keeps that many receive tokens
// posted, so nothing is dropped. A run during which the runtime started an
// OS thread is measured again: the thread's records are runtime
// allocations (5 objects, 5 KB), not the stream's, and under load one can
// land in any window.
func streamAllocs(t *testing.T, nodes, size, msgs int) (objects, bytes uint64) {
	t.Helper()
	for {
		threads := pprof.Lookup("threadcreate").Count()
		objects, bytes = streamAllocsOnce(t, nodes, size, msgs)
		if pprof.Lookup("threadcreate").Count() == threads {
			return objects, bytes
		}
	}
}

func streamAllocsOnce(t *testing.T, nodes, size, msgs int) (objects, bytes uint64) {
	t.Helper()
	c := cluster.New(nodes)
	ports := c.OpenPorts(testPort)
	c.InstallGroup(21, tree.KAry(0, c.Members(), 2), testPort, testPort)
	c.Run()
	msg := pattern(size)
	window := c.Cfg.GM.SendTokens
	got := 0
	for n := 1; n < nodes; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].ProvideN(window, len(msg))
			for i := 0; i < msgs; i++ {
				ports[n].Recv(p)
				got++
				ports[n].Provide(len(msg))
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			c.Nodes[0].Ext.Mcast(p, ports[0], 21, msg)
		}
		for i := 0; i < msgs; i++ {
			ports[0].WaitSendDone(p)
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

// One multicast packet crossing one hop of the tree costs the heap nothing
// once the run is warm: the packet's one frame — the pointer every forwarder
// passes on and every leaf reads — comes from the engine's pool and goes
// back to it (a fresh frame per packet was a sixth of an object and 16 B per
// hop here), and the processes' wait queues reuse their slots. Not a replica
// frame per child and an ack frame per receiver on top (3.5 objects and
// 253 B), nor a closure per firmware step, a *lanai.Buf and a *fabric.Packet
// on top of those (16 objects and 752 B before descriptors). Differencing
// runs of three lengths takes set-up and warm-up out; holding the early and
// the late window to the same bound shows the cost does not creep as the run
// goes on (wait-queue slots come in doubling sizes, so a window can differ
// by a few bytes either way, below zero included).
func TestAllocPerPacketHop(t *testing.T) {
	const hops = 6 // per message: one per non-root member
	o50, b50 := streamAllocs(t, 7, 1024, 50)
	o100, b100 := streamAllocs(t, 7, 1024, 100)
	o150, b150 := streamAllocs(t, 7, 1024, 150)
	per := func(hi, lo uint64) float64 { return (float64(hi) - float64(lo)) / (50 * hops) }
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

// A steady multicast stream over 16 nodes allocates nothing per packet:
// the two-packet messages' frames come from the root engine's pool, every
// forwarder passes the same frame on, and the last holder — the root's send
// record, or the slowest forwarder's — gives it back. Only the run's set-up
// and its processes allocate, the same for 50 messages as for 150. A fresh
// frame per packet was 0.067 objects and 6.4 B per packet-hop here; the
// bound leaves room for a few of the runtime's own allocations landing in
// one run and not the other.
func TestAllocMulticastStream16IsFree(t *testing.T) {
	const nodes, size = 16, 8192
	o50, b50 := streamAllocs(t, nodes, size, 50)
	o150, b150 := streamAllocs(t, nodes, size, 150)
	hops := float64(100 * 2 * (nodes - 1))
	obj, byt := (float64(o150)-float64(o50))/hops, (float64(b150)-float64(b50))/hops
	t.Logf("per packet-hop: %.4f objects %.2f B", obj, byt)
	if obj > 0.005 || byt > 0.5 {
		t.Errorf("a packet-hop of a warm 16-node multicast stream allocates %.4f objects / %.2f B, want 0", obj, byt)
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
				ports[n].Recv(p)
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

// A receiver that never calls Release costs the heap nothing per message: a
// 1 KB multicast to eight receivers whose loops only Recv and Provide
// allocates nothing — the packet's frame, shared by every replica, comes
// from the engine's pool and goes back to it, and the port takes each lent
// event back at the loop's next Recv and lands a later message in its
// buffer, so no receive buffer, assembly or event is made.
func TestAllocReceiveLoopWithoutRelease(t *testing.T) {
	const nodes, warm, runs = 9, 8, 200
	c := cluster.New(nodes)
	ports := c.OpenPorts(testPort)
	c.InstallGroup(22, tree.Binomial(0, c.Members()), testPort, testPort)
	c.Run()
	msg := pattern(1024)
	got := 0
	for n := 1; n < nodes; n++ {
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].ProvideN(2, len(msg))
			for range warm + runs + 1 { // AllocsPerRun runs once more to warm up
				if ev := ports[n].Recv(p); len(ev.Data) == len(msg) {
					got++
				}
				ports[n].Provide(len(msg))
			}
		})
	}
	allocs := -1.0
	c.Eng.Spawn("root", func(p *sim.Proc) {
		mcast := func() { c.Nodes[0].Ext.McastSync(p, ports[0], 22, msg) }
		for range warm {
			mcast()
		}
		allocs = testing.AllocsPerRun(runs, mcast)
	})
	c.Run()
	c.Kill()
	if want := (warm + runs + 1) * (nodes - 1); got != want {
		t.Fatalf("%d deliveries, want %d", got, want)
	}
	if allocs != 0 {
		t.Errorf("a multicast to %d receivers that never release allocates %.2f objects, want 0", nodes-1, allocs)
	}
}
