package lanai

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func testNIC(t *testing.T) (*sim.Engine, *NIC, *NIC) {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	a := New(eng, net.Iface(0), DefaultParams())
	b := New(eng, net.Iface(1), DefaultParams())
	a.RxDispatch = func(p *fabric.Packet) {}
	b.RxDispatch = func(p *fabric.Packet) {}
	return eng, a, b
}

func TestCPUSerializesWork(t *testing.T) {
	eng, a, _ := testNIC(t)
	var done []sim.Time
	eng.At(0, func() {
		a.CPUDo(1000, func() { done = append(done, eng.Now()) })
		a.CPUDo(1000, func() { done = append(done, eng.Now()) })
	})
	eng.Run()
	if len(done) != 2 || done[0] != 1000 || done[1] != 2000 {
		t.Fatalf("CPU completions %v, want [1000 2000]", done)
	}
}

func TestDMAEnginesRunConcurrentlyWithCPU(t *testing.T) {
	eng, a, _ := testNIC(t)
	var cpuDone, dmaDone sim.Time
	eng.At(0, func() {
		a.CPUDo(5000, func() { cpuDone = eng.Now() })
		a.HostToNIC(1000, func() { dmaDone = eng.Now() })
	})
	eng.Run()
	if cpuDone != 5000 {
		t.Fatalf("cpu done at %v, want 5000", cpuDone)
	}
	want := a.DMATime(1000)
	if dmaDone != want {
		t.Fatalf("dma done at %v, want %v (must not queue behind CPU)", dmaDone, want)
	}
}

func TestDMATimeModel(t *testing.T) {
	_, a, _ := testNIC(t)
	got := a.DMATime(1000)
	want := a.P.DMAStartup + sim.PerByte(a.P.PCINsPerByte, 1000)
	if got != want {
		t.Fatalf("DMATime(1000) = %v, want %v", got, want)
	}
	if a.DMATime(0) != a.P.DMAStartup {
		t.Fatal("zero-byte DMA must still pay startup")
	}
}

func TestBufPoolExhaustionQueuesFIFO(t *testing.T) {
	eng := sim.NewEngine()
	p := newBufPool(eng, 0, "test", 2, new(poolInstruments))
	var granted []int
	bufs := make([]Buf, 5)
	hold := func(id int) {
		p.Acquire(&bufs[id], func() { granted = append(granted, id) })
	}
	eng.At(0, func() {
		hold(1)
		hold(2)
		hold(3)
		hold(4)
	})
	eng.At(100, func() { bufs[1].Release() })
	eng.At(200, func() { bufs[2].Release() })
	eng.Run()
	want := []int{1, 2, 3, 4}
	if len(granted) != 4 {
		t.Fatalf("granted %v, want %v", granted, want)
	}
	for i := range want {
		if granted[i] != want[i] {
			t.Fatalf("grant order %v, want %v", granted, want)
		}
	}
	if p.MaxQueued != 2 {
		t.Fatalf("MaxQueued = %d, want 2", p.MaxQueued)
	}
}

func TestBufPoolTryAcquire(t *testing.T) {
	eng := sim.NewEngine()
	p := newBufPool(eng, 0, "rx", 1, new(poolInstruments))
	b, ok := p.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed on full pool")
	}
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on empty pool")
	}
	b.Release()
	if p.Free() != 1 {
		t.Fatalf("free = %d after release, want 1", p.Free())
	}
}

// The pool's name is spelled only when it panics, and still names the NIC
// and the pool.
func TestBufPoolDoubleReleasePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 4, fabric.DefaultLinkParams())
	n := New(eng, net.Iface(3), DefaultParams())
	b, _ := n.RecvBufs.TryAcquire()
	b.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "nic3.recvbufs") {
			t.Errorf("double release panicked with %q, which does not name nic3.recvbufs", msg)
		}
	}()
	b.Release()
}

func TestBufPoolReleaseChainDoesNotStarve(t *testing.T) {
	// A release that grants to a waiter which immediately releases again
	// must serve the whole chain without recursion blowups.
	eng := sim.NewEngine()
	p := newBufPool(eng, 0, "chain", 1, new(poolInstruments))
	served := 0
	var first Buf
	eng.At(0, func() {
		p.Acquire(&first, func() {})
		for i := 0; i < 1000; i++ {
			b := new(Buf)
			p.Acquire(b, func() {
				served++
				b.Release()
			})
		}
	})
	eng.At(10, func() { first.Release() })
	eng.Run()
	if served != 1000 {
		t.Fatalf("served %d waiters, want 1000", served)
	}
}

func TestRxNoBufferAccounting(t *testing.T) {
	_, a, _ := testNIC(t)
	reg := metrics.New()
	a.SetMetrics(reg)
	a.CountRxNoBuffer()
	a.CountRxNoBuffer()
	if got := counter(t, reg.Snapshot(), Component, 0, "rx_nobuffer"); got != 2 {
		t.Fatalf("rx_nobuffer = %d, want 2", got)
	}
}

func TestHostPostLatency(t *testing.T) {
	eng, a, _ := testNIC(t)
	var seen sim.Time
	eng.At(0, func() { a.HostPost(func() { seen = eng.Now() }) })
	eng.Run()
	if seen != a.P.HostPostLatency {
		t.Fatalf("descriptor visible at %v, want %v", seen, a.P.HostPostLatency)
	}
}

func TestWirePacketReachesRxDispatch(t *testing.T) {
	eng, a, b := testNIC(t)
	// The packet is the fabric's for the duration of the call only: record
	// the value, not the pointer.
	var got *fabric.Packet
	b.RxDispatch = func(p *fabric.Packet) { v := *p; got = &v }
	eng.At(0, func() {
		a.Ifc.Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 128, Payload: "hello"})
	})
	eng.Run()
	if got == nil || got.Payload != "hello" {
		t.Fatalf("rx dispatch got %+v", got)
	}
}

func TestBufPoolAccessors(t *testing.T) {
	eng := sim.NewEngine()
	p := newBufPool(eng, 0, "acc", 3, new(poolInstruments))
	if p.Cap() != 3 || p.Free() != 3 || p.Queued() != 0 {
		t.Fatalf("fresh pool cap=%d free=%d queued=%d", p.Cap(), p.Free(), p.Queued())
	}
	b, _ := p.TryAcquire()
	var b2, b3, b4 Buf
	p.Acquire(&b2, func() {})
	p.Acquire(&b3, func() {})
	p.Acquire(&b4, func() {}) // queues
	if p.Queued() != 1 {
		t.Fatalf("queued = %d, want 1", p.Queued())
	}
	b.Release()
	eng.Run()
	if p.Queued() != 0 {
		t.Fatalf("queued = %d after release, want 0", p.Queued())
	}
}

func TestBufPoolInvalidSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero-buffer pool accepted")
		}
	}()
	newBufPool(eng, 0, "bad", 0, new(poolInstruments))
}

func TestNICToHostUsesRDMA(t *testing.T) {
	eng, a, _ := testNIC(t)
	var done sim.Time
	eng.At(0, func() { a.NICToHost(1000, func() { done = eng.Now() }) })
	eng.Run()
	if done != a.DMATime(1000) {
		t.Fatalf("RDMA completed at %v, want %v", done, a.DMATime(1000))
	}
	if a.RDMA.Requests() != 1 {
		t.Fatal("RDMA facility not used")
	}
}

func TestUnattachedNICPanicsOnDelivery(t *testing.T) {
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	New(eng, net.Iface(0), DefaultParams())
	New(eng, net.Iface(1), DefaultParams()) // no RxDispatch installed
	eng.At(0, func() {
		net.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 16})
	})
	defer func() {
		if recover() == nil {
			t.Error("delivery to firmware-less NIC did not panic")
		}
	}()
	eng.Run()
}

func TestReleaseOfEmptyTokenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("releasing a token that holds no buffer did not panic")
		}
	}()
	var b Buf
	b.Release()
}
