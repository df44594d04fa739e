package myrinet

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
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

func testNet(t *testing.T, hosts int) (*sim.Engine, *fabric.Network) {
	t.Helper()
	eng := sim.NewEngine()
	n := NewSingleSwitch(eng, hosts, DefaultLinkParams())
	return eng, n
}

// attach installs a delivery recorder on every interface. It records the
// packet's value inside the hook: the pointer is the fabric's traversal
// record, valid only during the call.
func attach(n *fabric.Network) *[]delivery {
	var log []delivery
	for i := 0; i < n.Hosts(); i++ {
		id := fabric.NodeID(i)
		n.Iface(id).Deliver = func(p *fabric.Packet) {
			log = append(log, delivery{at: n.Engine().Now(), pkt: *p})
		}
	}
	return &log
}

type delivery struct {
	at  sim.Time
	pkt fabric.Packet
}

func TestSingleSwitchLatencyModel(t *testing.T) {
	eng, n := testNet(t, 4)
	log := attach(n)
	p := &fabric.Packet{Src: 0, Dst: 1, Size: 1000}
	eng.At(0, func() { n.Iface(0).Inject(p) })
	eng.Run()
	if len(*log) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*log))
	}
	// Two hops (host->switch, switch->host): head latency 2*300ns, each
	// link serializes 4000ns; cut-through so serialization overlaps:
	// tail at dst = 2*latency + 2*ser - overlap... hop0: start=0, headOut=300;
	// hop1: start=300, headOut=600, tail=600+4000=4600.
	want := sim.Time(2*300 + 4000 + 300) // actually computed: 4600
	_ = want
	got := (*log)[0].at
	if got != 4600 {
		t.Fatalf("delivery at %v, want 4600ns", got)
	}
}

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	// With cut-through, total time grows with hops by latency only, not by
	// full serialization per hop.
	eng := sim.NewEngine()
	n := NewClos(eng, 32, 16, DefaultLinkParams())
	var at sim.Time
	n.Iface(31).Deliver = func(p *fabric.Packet) { at = eng.Now() }
	const size = 4096
	eng.At(0, func() { n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 31, Size: size}) })
	eng.Run()
	hops := n.HopCount(0, 31)
	if hops != 4 {
		t.Fatalf("cross-leaf route has %d hops, want 4", hops)
	}
	ser := DefaultLinkParams().SerializationTime(size)
	lat := DefaultLinkParams().Latency
	wantCutThrough := sim.Time(hops)*lat + ser
	wantStoreFwd := sim.Time(hops) * (lat + ser)
	if at != wantCutThrough {
		t.Fatalf("delivery at %v, want cut-through %v (store-and-forward would be %v)",
			at, wantCutThrough, wantStoreFwd)
	}
}

func TestLinkSerializationQueues(t *testing.T) {
	eng, n := testNet(t, 4)
	log := attach(n)
	// Two packets injected back-to-back from the same source share the
	// injection link; the second must queue behind the first.
	eng.At(0, func() {
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 1000})
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 2, Size: 1000})
	})
	eng.Run()
	if len(*log) != 2 {
		t.Fatalf("delivered %d, want 2", len(*log))
	}
	first, second := (*log)[0].at, (*log)[1].at
	if second-first != 4000 {
		t.Fatalf("second delivery %v after first, want 4000ns (one serialization)", second-first)
	}
}

func TestContentionOnSharedDestination(t *testing.T) {
	eng, n := testNet(t, 4)
	log := attach(n)
	// Two sources target one destination; the switch->host link serializes.
	eng.At(0, func() {
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 3, Size: 1000})
		n.Iface(1).Inject(&fabric.Packet{Src: 1, Dst: 3, Size: 1000})
	})
	eng.Run()
	if len(*log) != 2 {
		t.Fatalf("delivered %d, want 2", len(*log))
	}
	gap := (*log)[1].at - (*log)[0].at
	if gap < 3000 {
		t.Fatalf("deliveries only %v apart; destination link contention not modeled", gap)
	}
}

func TestRouteSymmetricHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	n := NewClos(eng, 48, 16, DefaultLinkParams())
	for src := fabric.NodeID(0); src < 48; src += 7 {
		for dst := fabric.NodeID(0); dst < 48; dst++ {
			if src == dst {
				continue
			}
			h1, h2 := n.HopCount(src, dst), n.HopCount(dst, src)
			if h1 != h2 {
				t.Fatalf("asymmetric hop counts %v<->%v: %d vs %d", src, dst, h1, h2)
			}
			if h1 != 2 && h1 != 4 {
				t.Fatalf("unexpected hop count %d for %v->%v", h1, src, dst)
			}
		}
	}
}

func TestCrossLeafUsesSpine(t *testing.T) {
	eng := sim.NewEngine()
	n := NewClos(eng, 32, 16, DefaultLinkParams())
	sameLeaf := n.HopCount(0, 7)
	crossLeaf := n.HopCount(0, 8)
	if sameLeaf != 2 {
		t.Errorf("same-leaf hops = %d, want 2", sameLeaf)
	}
	if crossLeaf != 4 {
		t.Errorf("cross-leaf hops = %d, want 4", crossLeaf)
	}
}

func TestClosSpreadsSpines(t *testing.T) {
	eng := sim.NewEngine()
	n := NewClos(eng, 32, 16, DefaultLinkParams())
	spines := make(map[*fabric.Link]bool)
	for dst := fabric.NodeID(8); dst < 16; dst++ {
		r := n.Route(0, dst)
		spines[r[1]] = true
	}
	if len(spines) < 2 {
		t.Fatalf("all routes from node 0 share %d spine uplink(s); want dispersion", len(spines))
	}
}

func TestAutoTopology(t *testing.T) {
	eng := sim.NewEngine()
	small := AutoTopology(eng, 16, DefaultLinkParams())
	if got := small.HopCount(0, 15); got != 2 {
		t.Errorf("16-host auto topology: %d hops, want 2 (single crossbar)", got)
	}
	big := AutoTopology(eng, 64, DefaultLinkParams())
	if got := big.HopCount(0, 63); got != 4 {
		t.Errorf("64-host auto topology: %d hops, want 4 (Clos)", got)
	}
}

func TestLossRateDropsPackets(t *testing.T) {
	eng, n := testNet(t, 2)
	reg := metrics.New()
	n.SetMetrics(reg)
	n.SetRNG(sim.NewRNG(1))
	n.LossRate = 0.5
	delivered := 0
	n.Iface(1).Deliver = func(p *fabric.Packet) { delivered++ }
	const sent = 1000
	eng.At(0, func() {
		for i := 0; i < sent; i++ {
			n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 100})
		}
	})
	eng.Run()
	snap := reg.Snapshot()
	if injected := counter(t, snap, fabric.Component, metrics.NodeFabric, "injected"); injected != sent {
		t.Fatalf("injected %d, want %d", injected, sent)
	}
	fabDelivered := counter(t, snap, fabric.Component, metrics.NodeFabric, "delivered")
	dropped := counter(t, snap, fabric.Component, metrics.NodeFabric, "dropped")
	if fabDelivered+dropped != sent {
		t.Fatalf("delivered %d + dropped %d != %d", fabDelivered, dropped, sent)
	}
	// Per-link loss 0.5 over 2 hops => ~25% survival.
	if delivered < 150 || delivered > 350 {
		t.Fatalf("delivered %d of %d with 2-hop 0.5 loss; want roughly 250", delivered, sent)
	}
}

func TestDropFnTargetsPackets(t *testing.T) {
	eng, n := testNet(t, 2)
	kill := true
	n.DropFn = func(p *fabric.Packet, l *fabric.Link) bool { return kill }
	got := 0
	n.Iface(1).Deliver = func(p *fabric.Packet) { got++ }
	eng.At(0, func() { n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 64}) })
	eng.At(sim.Millisecond, func() {
		kill = false
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 64})
	})
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want exactly the undropped packet", got)
	}
}

func TestInjectValidation(t *testing.T) {
	eng, n := testNet(t, 2)
	_ = eng
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("wrong source", func() {
		n.Iface(0).Inject(&fabric.Packet{Src: 1, Dst: 0, Size: 10})
	})
	mustPanic("zero size", func() {
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 0})
	})
	mustPanic("route to self", func() {
		n.Route(1, 1)
	})
}

// Property: on an idle fabric, delivery time equals hops*latency +
// serialization, for any size and host pair.
func TestIdleLatencyProperty(t *testing.T) {
	f := func(rawSize uint16, rawSrc, rawDst uint8) bool {
		size := int(rawSize)%16384 + 1
		src := fabric.NodeID(rawSrc % 16)
		dst := fabric.NodeID(rawDst % 16)
		if src == dst {
			return true
		}
		eng := sim.NewEngine()
		n := NewSingleSwitch(eng, 16, DefaultLinkParams())
		var at sim.Time
		n.Iface(dst).Deliver = func(p *fabric.Packet) { at = eng.Now() }
		eng.At(0, func() { n.Iface(src).Inject(&fabric.Packet{Src: src, Dst: dst, Size: size}) })
		eng.Run()
		want := 2*DefaultLinkParams().Latency + DefaultLinkParams().SerializationTime(size)
		return at == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadPassesThroughUntouched(t *testing.T) {
	eng, n := testNet(t, 2)
	payload := []byte("frame-bytes")
	var got any
	n.Iface(1).Deliver = func(p *fabric.Packet) { got = p.Payload }
	eng.At(0, func() {
		n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: 1, Size: 64, Payload: payload})
	})
	eng.Run()
	b, ok := got.([]byte)
	if !ok || string(b) != "frame-bytes" {
		t.Fatalf("payload corrupted in transit: %v", got)
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFatTree(eng, 256, 16, DefaultLinkParams())
	cases := []struct {
		src, dst fabric.NodeID
		hops     int
		name     string
	}{
		{0, 1, 2, "same edge"},
		{0, 8, 4, "same pod, different edge"},
		{0, 63, 4, "same pod boundary"},
		{0, 64, 6, "cross pod"},
		{0, 255, 6, "far cross pod"},
	}
	for _, c := range cases {
		if got := n.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("%s (%v->%v): %d hops, want %d", c.name, c.src, c.dst, got, c.hops)
		}
	}
}

func TestFatTreeDeliversEverywhere(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFatTree(eng, 200, 16, DefaultLinkParams())
	got := map[fabric.NodeID]bool{}
	for i := 0; i < 200; i++ {
		id := fabric.NodeID(i)
		n.Iface(id).Deliver = func(p *fabric.Packet) { got[p.Dst] = true }
	}
	eng.At(0, func() {
		for _, dst := range []fabric.NodeID{1, 7, 63, 64, 127, 128, 199} {
			n.Iface(0).Inject(&fabric.Packet{Src: 0, Dst: dst, Size: 100})
		}
		n.Iface(199).Inject(&fabric.Packet{Src: 199, Dst: 0, Size: 100})
	})
	eng.Run()
	for _, dst := range []fabric.NodeID{1, 7, 63, 64, 127, 128, 199, 0} {
		if !got[dst] {
			t.Fatalf("no delivery at %v", dst)
		}
	}
}

func TestFatTreeSymmetricHops(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFatTree(eng, 256, 16, DefaultLinkParams())
	for _, pair := range [][2]fabric.NodeID{{0, 70}, {5, 200}, {64, 192}, {3, 12}} {
		a, b := n.HopCount(pair[0], pair[1]), n.HopCount(pair[1], pair[0])
		if a != b {
			t.Errorf("asymmetric hops %v<->%v: %d vs %d", pair[0], pair[1], a, b)
		}
	}
}

func TestFatTreeSpreadsCore(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFatTree(eng, 256, 16, DefaultLinkParams())
	coreLinks := map[*fabric.Link]bool{}
	for dst := fabric.NodeID(64); dst < 128; dst++ {
		r := n.Route(0, dst)
		if len(r) == 6 {
			coreLinks[r[2]] = true // agg -> core uplink
		}
	}
	if len(coreLinks) < 4 {
		t.Fatalf("cross-pod routes use only %d core uplinks; want dispersion", len(coreLinks))
	}
}

func TestFatTreeCapacityEnforced(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("oversubscribed fat tree did not panic")
		}
	}()
	NewFatTree(eng, 16*64+1, 16, DefaultLinkParams())
}

func TestFatTreeSmallFallsBackToClos(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFatTree(eng, 48, 16, DefaultLinkParams())
	if got := n.HopCount(0, 47); got != 4 {
		t.Fatalf("small fat tree did not fall back to 2-level Clos: %d hops", got)
	}
}

func TestAutoTopologyThreeTiers(t *testing.T) {
	eng := sim.NewEngine()
	if got := AutoTopology(eng, 256, DefaultLinkParams()).HopCount(0, 255); got != 6 {
		t.Errorf("256-host topology: %d hops, want 6 (fat tree)", got)
	}
}
