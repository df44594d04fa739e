package lanai_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/lanai"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// counter reads one counter out of a snapshot. A key no instrument reports
// fails the test, so a misspelled name cannot pass as a zero count.
func counter(t testing.TB, s metrics.Snapshot, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}

// The host event queue is the firmware's: a gm.Port's receive events, each
// DMA'd to the host by lanai.NIC.PostHostEvent. These tests drive that path.

func eventRig(t *testing.T) (*sim.Engine, *lanai.NIC, *gm.Port, *metrics.Registry) {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.SingleSwitch(eng, 2, fabric.DefaultLinkParams())
	reg := metrics.New()
	hw := lanai.New(eng, net.Iface(0), lanai.DefaultParams())
	hw.SetMetrics(reg)
	port := gm.NewNIC(hw, gm.DefaultConfig()).OpenPort(1)
	return eng, hw, port, reg
}

// land completes a one-packet message on port, which posts its event record.
func land(t *testing.T, port *gm.Port, msgID uint64, data []byte) {
	t.Helper()
	port.Provide(len(data))
	asm, ok := port.MatchAssembly(1, &gm.Frame{SrcPort: 1, MsgID: msgID, MsgLen: len(data)})
	if !ok {
		t.Fatalf("no receive token for message %d", msgID)
	}
	asm.Deposit(0, data)
}

func TestHostEventQueueFIFO(t *testing.T) {
	eng, hw, port, reg := eventRig(t)
	var landed []sim.Time
	eng.At(0, func() {
		land(t, port, 1, []byte("first"))
		port.PostGroupEvent(&gm.RecvEvent{Group: 7})
		hw.PostHostEvent(func() { landed = append(landed, eng.Now()) })
	})
	eng.Run()
	// Each poll takes back the event the one before lent, so the first
	// event is read before the second poll.
	ev1, ok1 := port.TryRecv()
	if !ok1 || string(ev1.Data) != "first" {
		t.Fatalf("first poll %v %+v, want the message", ok1, ev1)
	}
	ev2, ok2 := port.TryRecv()
	_, ok3 := port.TryRecv()
	if !ok2 || ok3 || ev2.Group != 7 {
		t.Fatalf("later polls %v %+v %v, want the group event, then nothing", ok2, ev2, ok3)
	}
	// Every record rides the RDMA engine, one EventPostCost after the other,
	// and is counted as a host event and as RDMA busy time.
	cost := hw.P.EventPostCost
	if len(landed) != 1 || landed[0] != 3*cost {
		t.Fatalf("third record landed at %v, want %v", landed, 3*cost)
	}
	snap := reg.Snapshot()
	if got := counter(t, snap, lanai.Component, 0, "host_events"); got != 3 {
		t.Fatalf("host_events = %d, want 3", got)
	}
	if got := counter(t, snap, lanai.Component, 0, "rdma_busy_ns"); got != uint64(3*cost) {
		t.Fatalf("rdma_busy_ns = %d, want %d", got, 3*cost)
	}
}

func TestWaitHostEventBlocksUntilPosted(t *testing.T) {
	eng, hw, port, _ := eventRig(t)
	var got *gm.RecvEvent
	var at sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		got = port.Recv(p)
		at = p.Now()
	})
	eng.At(500, func() { land(t, port, 1, []byte("wakeup")) })
	eng.Run()
	if got == nil || string(got.Data) != "wakeup" {
		t.Fatalf("got %+v, want wakeup", got)
	}
	if at < 500+hw.P.EventPostCost {
		t.Fatalf("host woke at %v, before the event record reached it", at)
	}
}

func TestPendingHostEvents(t *testing.T) {
	eng, _, port, _ := eventRig(t)
	eng.At(0, func() {
		land(t, port, 1, []byte{1})
		land(t, port, 2, []byte{2})
	})
	eng.Step() // the posting event: both records are still on the RDMA engine
	if port.PendingRecvs() != 0 {
		t.Fatalf("pending = %d before any record landed, want 0", port.PendingRecvs())
	}
	eng.Run()
	if port.PendingRecvs() != 2 {
		t.Fatalf("pending = %d, want 2", port.PendingRecvs())
	}
	port.TryRecv()
	if port.PendingRecvs() != 1 {
		t.Fatalf("pending = %d after poll, want 1", port.PendingRecvs())
	}
}
