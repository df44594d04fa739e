package cluster_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchkernel"
	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// goldenRun drives the capture workload the pinned timelines were recorded
// with — a traced, optionally lossy multicast stream over a binomial group —
// and captures its packet timeline, fired events, final clock and event
// count. It returns the finished cluster too.
func goldenRun(t *testing.T, nodes int, seed int64, loss float64, msgs int, extra ...cluster.Option) (golden.Capture, *cluster.Cluster) {
	t.Helper()
	tr := trace.NewRecorder()
	opts := append([]cluster.Option{
		cluster.WithTrace(tr),
		cluster.WithSeed(seed),
		cluster.WithLossRate(loss),
	}, extra...)
	c := cluster.New(nodes, opts...)
	stream := golden.Hook(c.Engines())
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for !ready() {
			p.Sleep(sim.Micros(1))
		}
		ext := c.Nodes[0].Ext
		for i := 0; i < msgs; i++ {
			ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	for i := 1; i < nodes; i++ {
		port := ports[i]
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			port.ProvideN(msgs+3, 1<<12)
			for got := 0; got < msgs; got++ {
				port.Recv(p)
			}
		})
	}
	c.Eng.Run()
	c.Eng.Kill()
	if tr.Len() == 0 {
		t.Fatal("capture workload recorded no trace events")
	}
	var buf bytes.Buffer
	tr.WriteTimeline(&buf)
	return golden.Capture{Clock: c.Eng.Now(), Events: c.Eng.EventsFired(), Trace: buf.Bytes(), Stream: stream()}, c
}

// TestMyrinetTimelineGoldens pins two timelines captured on main
// immediately before the fabric extraction, by running goldenRun's exact
// workload against the monolithic myrinet package. They pin the refactor's
// central promise: moving the transit engine, partitioner, and topology
// builders behind the fabric interface changed no Myrinet behavior, to the
// byte.
func TestMyrinetTimelineGoldens(t *testing.T) {
	c8, _ := goldenRun(t, 8, 7, 0.02, 5)
	golden.Check(t, "TestMyrinetTimelineGoldens", "8-node-lossy", c8)
	c16, _ := goldenRun(t, 16, 3, 0, 4)
	golden.Check(t, "TestMyrinetTimelineGoldens", "16-node-clean", c16)
}

// TestWithFabricShimEquivalence proves the fabric-selection API is a pure
// re-spelling of the defaults: explicitly passing the Myrinet preset
// reproduces the pinned timeline bit-for-bit, and a link-parameter override
// in the preset's Links field reaches the topology.
func TestWithFabricShimEquivalence(t *testing.T) {
	def, _ := goldenRun(t, 8, 7, 0.02, 5, cluster.WithFabric(myrinet.Default()))
	golden.Check(t, "TestMyrinetTimelineGoldens", "8-node-lossy", def)

	slow := myrinet.DefaultLinkParams()
	slow.Latency *= 3
	slow.NsPerByte *= 2
	fc := myrinet.Default()
	fc.Links = slow
	if slow, _ := goldenRun(t, 8, 7, 0.02, 5, cluster.WithFabric(fc)); slow.Clock == def.Clock {
		t.Error("tripled link latency left the timeline unchanged; override never applied")
	}
}

// TestMulticastStormClockGoldens pins the storm kernel's final virtual clock
// and fired-event count (summed over shards) across the auto-topology tiers
// (single crossbar, Clos, fat tree), both fabrics, 1/2/4 shards, the ack
// economy and the 16384-host frontier, as golden headers. The first three
// clocks were captured before the fabric extraction; the rest are the
// virtual_ns values the retired wall-clock baseline file recorded. Sharded
// rows also hold a floor on the speedup the window placement allows
// (ShardStats.SpeedupBound, a count, so it repeats exactly): the
// deterministic form of "4 shards beat one engine".
func TestMulticastStormClockGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("storm goldens are slow")
	}
	// Cumulative acks every 8 packets held up to 2 ms, piggybacking and tree
	// aggregation: the hold spans several packet arrivals at the binomial
	// root's pace, so coalescing is count-driven (64 KB messages; a
	// single-packet McastSync message would stall on the hold instead).
	economy := []cluster.Option{
		cluster.WithAckCoalescing(8, 2*sim.Millisecond),
		cluster.WithPiggybackAcks(),
		cluster.WithAckAggregation(),
	}
	for _, tc := range []struct {
		name                      string
		fc                        fabric.Config
		nodes, shards, msgs, size int
		extra                     []cluster.Option
		minBound                  float64
	}{
		{"myrinet-16", fabric.Config{}, 16, 1, 6, 700, nil, 0},
		{"myrinet-64", fabric.Config{}, 64, 1, 6, 700, nil, 0},
		{"myrinet-256", fabric.Config{}, 256, 1, 6, 700, nil, 0},
		{"myrinet-512", fabric.Config{}, 512, 1, 20, 1024, nil, 0},
		{"myrinet-512-2shards", fabric.Config{}, 512, 2, 20, 1024, nil, 1.6},
		{"myrinet-512-4shards", fabric.Config{}, 512, 4, 20, 1024, nil, 2.6},
		{"myrinet-512-64KB", fabric.Config{}, 512, 1, 3, 65536, nil, 0},
		{"myrinet-512-64KB-ackecon8", fabric.Config{}, 512, 1, 3, 65536, economy, 0},
		{"myrinet-2048-4shards", fabric.Config{}, 2048, 4, 11, 1024, nil, 0},
		{"clos-512", clos.Default(), 512, 1, 20, 1024, nil, 0},
		{"myrinet-16384-4shards", fabric.Config{}, 16384, 4, 3, 1024, nil, 0},
		{"clos-16384-4shards", clos.Default(), 16384, 4, 3, 1024, nil, 0},
	} {
		clock, st := benchkernel.MulticastStormStats(tc.fc, tc.nodes, tc.shards, tc.msgs, tc.size, tc.extra...)
		var events uint64
		for _, n := range st.Events {
			events += n
		}
		golden.Check(t, "TestMulticastStormClockGoldens", tc.name, golden.Capture{Clock: clock, Events: events})
		if bound := st.SpeedupBound(); bound < tc.minBound {
			t.Errorf("%s: window placement allows a %.4fx speedup, want >= %.1fx", tc.name, bound, tc.minBound)
		}
	}
}

// goldenMixRun is the capture workload of the reliability matrix below: 8
// nodes at 2 % loss, a windowed multicast stream down a binomial tree (port
// 1) racing bidirectional unicast streams between partner nodes (port 2, so
// reverse-direction data exists for acks to piggyback on). Both go-back-N
// windows, their timers and the delayed-ack holders all do real work.
func goldenMixRun(t *testing.T, extra ...cluster.Option) golden.Capture {
	t.Helper()
	const (
		nodes  = 8
		mcasts = 12
		ucasts = 5
		size   = 9000 // three packets per message
	)
	tr := trace.NewRecorder()
	opts := append([]cluster.Option{
		cluster.WithTrace(tr),
		cluster.WithSeed(11),
		cluster.WithLossRate(0.02),
	}, extra...)
	c := cluster.New(nodes, opts...)
	stream := golden.Hook(c.Engines())
	mports := c.OpenPorts(1)
	uports := c.OpenPorts(2)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for !ready() {
			p.Sleep(sim.Micros(1))
		}
		for i := 0; i < mcasts; i++ {
			c.Nodes[0].Ext.McastSync(p, mports[0], 7, make([]byte, size))
		}
	})
	for i := 0; i < nodes; i++ {
		mport, uport, partner := mports[i], uports[i], fabric.NodeID(i^1)
		if i > 0 {
			c.Eng.Spawn("mrecv", func(p *sim.Proc) {
				mport.ProvideN(mcasts, size)
				for got := 0; got < mcasts; got++ {
					mport.Recv(p)
				}
			})
		}
		c.Eng.Spawn("urecv", func(p *sim.Proc) {
			uport.ProvideN(ucasts, size)
			for got := 0; got < ucasts; got++ {
				uport.Recv(p)
			}
		})
		c.Eng.Spawn("usend", func(p *sim.Proc) {
			for k := 0; k < ucasts; k++ {
				uport.SendSync(p, partner, 2, make([]byte, size))
			}
		})
	}
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("%d processes still blocked: the lossy mix never completed", live)
	}
	c.Eng.Kill()
	var buf bytes.Buffer
	tr.WriteTimeline(&buf)
	return golden.Capture{Clock: c.Eng.Now(), Events: c.Eng.EventsFired(), Trace: buf.Bytes(), Stream: stream()}
}

// TestReliabilityMatrixGoldens pins the lossy unicast+multicast mix over
// every combination of the reliability knobs on both fabrics. Captured at
// the commit before gm's and core's hand-mirrored go-back-N windows were
// folded into one: a refactor of the retransmit or delayed-ack machinery is
// correct exactly when none of these moves.
func TestReliabilityMatrixGoldens(t *testing.T) {
	for _, fab := range []string{"myrinet", "clos"} {
		for mask := 0; mask < 8; mask++ {
			name := fab
			var opts []cluster.Option
			if fab == "clos" {
				opts = append(opts, cluster.WithFabric(clos.Default()))
			}
			if mask&1 != 0 {
				name += "+nacks"
				opts = append(opts, cluster.WithNacks())
			}
			if mask&2 != 0 {
				name += "+adaptive"
				opts = append(opts, cluster.WithAdaptiveRTO())
			}
			if mask&4 != 0 {
				name += "+ackecon4"
				opts = append(opts, cluster.WithAckEconomy(4))
			}
			golden.Check(t, "TestReliabilityMatrixGoldens", name, goldenMixRun(t, opts...))
		}
	}
	// The three Section-5 design alternatives, captured before the
	// multicast extension's packet descriptor and send token were merged
	// into gm's: one token per destination, store-and-forward at interior
	// NICs, and a receive buffer held until every child has acknowledged.
	// With the stock 32 receive buffers a held buffer is never missed, so
	// the hold-buffer row matches "myrinet" above; with 4 (still enough for
	// the unablated mix, which is unchanged by the cut) holding them shows.
	ablations := []struct {
		name string
		set  func(*cluster.Config)
	}{
		{"myrinet+tokens", func(c *cluster.Config) { c.Mcast.Multisend = core.ModeTokens }},
		{"myrinet+store-and-forward", func(c *cluster.Config) { c.Mcast.Forward = core.ForwardStoreAndForward }},
		{"myrinet+hold-buffer", func(c *cluster.Config) { c.Mcast.Retransmit = core.RetransmitHoldBuffer }},
		{"myrinet+hold-buffer+4rxbufs", func(c *cluster.Config) {
			c.Mcast.Retransmit = core.RetransmitHoldBuffer
			c.NIC.RecvBuffers = 4
		}},
	}
	for _, a := range ablations {
		golden.Check(t, "TestReliabilityMatrixGoldens", a.name, goldenMixRun(t, cluster.WithMutate(a.set)))
	}
}

// reportTB stands in for a test so a golden mismatch's report can be read
// back.
type reportTB struct {
	testing.TB
	report string
}

func (r *reportTB) Helper() {}

func (r *reportTB) Errorf(format string, args ...any) { r.report += fmt.Sprintf(format, args...) }

// TestGoldenReportsInjectedCost adds 1 ns to the NIC's event-post cost on
// the 16-node clean timeline. The golden's report must name the first event
// that moves — by number, time, key and domain — with the events before it
// on its domain and the trace lines at its instant, rather than only say
// that something did.
func TestGoldenReportsInjectedCost(t *testing.T) {
	if golden.Updating() {
		t.Skip("compares a perturbed run with a golden; nothing to capture")
	}
	c, _ := goldenRun(t, 16, 3, 0, 4, cluster.WithMutate(func(cfg *cluster.Config) { cfg.NIC.EventPostCost++ }))
	r := &reportTB{TB: t}
	golden.Check(r, "TestMyrinetTimelineGoldens", "16-node-clean", c)
	for _, want := range []string{
		`first divergence at event 71 (t=28297 key=0xa00000000000a domain=10); golden has "28296 10:10"`,
		"  event 70 t=27946 key=0xa000000000004 domain=10\ntrace at 28.297µs:\n" +
			"  28.297µs  n8   host     delivered 2000 bytes from n0 (msg 1, group 7)\n",
	} {
		if !strings.Contains(r.report, want) {
			t.Errorf("report lacks %q:\n%s", want, r.report)
		}
	}
}
