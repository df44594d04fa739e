package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/benchkernel"
	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// goldenRun drives the capture workload the pinned hashes below were
// recorded with — a traced, optionally lossy multicast stream over a
// binomial group — and digests the full packet timeline plus the final
// clock and event count into one comparable string.
func goldenRun(t *testing.T, nodes int, seed int64, loss float64, msgs int, extra ...cluster.Option) string {
	t.Helper()
	tr := trace.NewRecorder()
	opts := append([]cluster.Option{
		cluster.WithTrace(tr),
		cluster.WithSeed(seed),
		cluster.WithLossRate(loss),
	}, extra...)
	c := cluster.New(nodes, opts...)
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
	return fmt.Sprintf("%x t=%d ev=%d", sha256.Sum256(buf.Bytes()), c.Eng.Now(), c.Eng.EventsFired())
}

// Timelines captured on main immediately before the fabric extraction, by
// running goldenRun's exact workload against the monolithic myrinet
// package. They pin the refactor's central promise: moving the transit
// engine, partitioner, and topology builders behind the fabric interface
// changed no Myrinet behavior, to the byte.
const (
	golden8  = "a752ca158a2cc6545a80cd18e33e7a361235199328b457dc2c2b8883af991818 t=1243188 ev=549"
	golden16 = "45b49d6dcb5ae84d34ae0436ceaaa1eeeff84cc3e1c7aba274c8fd3baa8e38d2 t=215328 ev=910"
)

func TestMyrinetTimelineGoldens(t *testing.T) {
	if got := goldenRun(t, 8, 7, 0.02, 5); got != golden8 {
		t.Errorf("8-node lossy timeline diverged from pre-refactor capture:\n got %s\nwant %s", got, golden8)
	}
	if got := goldenRun(t, 16, 3, 0, 4); got != golden16 {
		t.Errorf("16-node clean timeline diverged from pre-refactor capture:\n got %s\nwant %s", got, golden16)
	}
}

// TestWithFabricShimEquivalence proves the new fabric-selection API is a
// pure re-spelling of the legacy defaults: explicitly passing the Myrinet
// preset reproduces the pinned timelines bit-for-bit, and a link-parameter
// override lands identically whether it travels through the preset's Links
// field or the deprecated Config.Link knob.
func TestWithFabricShimEquivalence(t *testing.T) {
	if got := goldenRun(t, 8, 7, 0.02, 5, cluster.WithFabric(myrinet.Default())); got != golden8 {
		t.Errorf("WithFabric(myrinet.Default()) diverged from the default build:\n got %s\nwant %s", got, golden8)
	}

	slow := myrinet.DefaultLinkParams()
	slow.Latency *= 3
	slow.NsPerByte *= 2
	fc := myrinet.Default()
	fc.Links = slow
	viaPreset := goldenRun(t, 8, 7, 0.02, 5, cluster.WithFabric(fc))
	viaLegacyKnob := goldenRun(t, 8, 7, 0.02, 5,
		cluster.WithMutate(func(cfg *cluster.Config) { cfg.Link = slow }))
	if viaPreset != viaLegacyKnob {
		t.Errorf("link override differs by spelling:\n preset %s\n legacy %s", viaPreset, viaLegacyKnob)
	}
	if viaPreset == golden8 {
		t.Error("tripled link latency left the timeline unchanged; override never applied")
	}
}

// TestMulticastStormClockGoldens pins the storm kernel's final virtual clock
// and fired-event count (summed over shards) across the auto-topology tiers
// (single crossbar, Clos, fat tree), both fabrics, 1/2/4 shards, the ack
// economy and the 16384-host frontier. The first three clocks were captured
// before the fabric extraction; the rest are the virtual_ns values the
// retired wall-clock baseline file recorded. Sharded rows also hold a floor
// on the speedup the window placement allows (ShardStats.SpeedupBound, a
// count, so it repeats exactly): the deterministic form of "4 shards beat
// one engine".
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
		clock                     sim.Time
		events                    uint64
		minBound                  float64
	}{
		{"myrinet-16", fabric.Config{}, 16, 1, 6, 700, nil, 166954, 1338, 0},
		{"myrinet-64", fabric.Config{}, 64, 1, 6, 700, nil, 220606, 5682, 0},
		{"myrinet-256", fabric.Config{}, 256, 1, 6, 700, nil, 274858, 23034, 0},
		{"myrinet-512", fabric.Config{}, 512, 1, 20, 1024, nil, 1168325, 150316, 0},
		{"myrinet-512-2shards", fabric.Config{}, 512, 2, 20, 1024, nil, 1168325, 150316, 1.6},
		{"myrinet-512-4shards", fabric.Config{}, 512, 4, 20, 1024, nil, 1168325, 150316, 2.6},
		{"myrinet-512-64KB", fabric.Config{}, 512, 1, 3, 65536, nil, 7447403, 289443, 0},
		{"myrinet-512-64KB-ackecon8", fabric.Config{}, 512, 1, 3, 65536, economy, 7587772, 197715, 0},
		{"myrinet-2048-4shards", fabric.Config{}, 2048, 4, 11, 1024, nil, 780298, 327333, 0},
		{"clos-512", clos.Default(), 512, 1, 20, 1024, nil, 493284, 190556, 0},
		{"myrinet-16384-4shards", fabric.Config{}, 16384, 4, 3, 1024, nil, 318786, 743565, 0},
		{"clos-16384-4shards", clos.Default(), 16384, 4, 3, 1024, nil, 168508, 946473, 0},
	} {
		clock, st := benchkernel.MulticastStormStats(tc.fc, tc.nodes, tc.shards, tc.msgs, tc.size, tc.extra...)
		var events uint64
		for _, n := range st.Events {
			events += n
		}
		if clock != tc.clock || events != tc.events {
			t.Errorf("%s: storm finished at %d after %d events, pinned %d after %d",
				tc.name, clock, events, tc.clock, tc.events)
		}
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
func goldenMixRun(t *testing.T, extra ...cluster.Option) string {
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
	return fmt.Sprintf("%x t=%d ev=%d", sha256.Sum256(buf.Bytes()), c.Eng.Now(), c.Eng.EventsFired())
}

// TestReliabilityMatrixGoldens pins the lossy unicast+multicast mix over
// every combination of the reliability knobs on both fabrics. Captured at
// the commit before gm's and core's hand-mirrored go-back-N windows were
// folded into one: a refactor of the retransmit or delayed-ack machinery is
// correct exactly when none of these moves.
func TestReliabilityMatrixGoldens(t *testing.T) {
	want := map[string]string{
		"myrinet":                         "450e8b7c347eba0a8d174256a5ae517faa0b66b8bfa629309de4c1492e915bf1 t=2742778 ev=5010",
		"myrinet+nacks":                   "370cde84e1ea55fc53157d4efa1d4b655560ff2c1a28aafa136355a7c8b248fe t=2927774 ev=5089",
		"myrinet+adaptive":                "27f18f450fbc204ae02e86548314d17fc31d3c39e46844f620c74527cef4c3ac t=3781042 ev=5008",
		"myrinet+nacks+adaptive":          "e5a35d96d251074d1644b12f0e5540b2046767dd4f81f12ed8cd136463a382a3 t=3304344 ev=5093",
		"myrinet+ackecon4":                "ccd8582f6144e8e68d76a6f7a934db1642e24e11e6673d94e2c23d4272144f58 t=6586207 ev=4395",
		"myrinet+nacks+ackecon4":          "cd5f96f8de6e44faff3b3b1047d98d473d428a8e23796e6e292664b66b5962cd t=6036180 ev=4562",
		"myrinet+adaptive+ackecon4":       "1fb417be3f848ff7db60f0912fb7e934f2874903d20cca00e8d22262eaaecc4b t=5984042 ev=4392",
		"myrinet+nacks+adaptive+ackecon4": "74edc3f19ed0644128bb050f41ba58b080f9885a78ba6b110df6797b2a19bc47 t=5501011 ev=4567",
		"clos":                            "849f63ec2d5f435ab4974a433820a9c00c3f71526176ffff839be68e90dbf3cd t=3518663 ev=6874",
		"clos+nacks":                      "87d5c252339eca64c21434877b5da62a2f23d88f1aef33eabf640ea18079bfa4 t=2568117 ev=7154",
		"clos+adaptive":                   "18ded602bb6c5a23a3d2e54007811863a341976e8f1df4b63063d6e85f5a1b8a t=2013095 ev=6696",
		"clos+nacks+adaptive":             "3cec1c20faa27b3bb8cf5c86497047042bf72495db2f36474438b5639b601ee3 t=2038605 ev=7119",
		"clos+ackecon4":                   "89974e9e6882019376521a7b9bc3a0cffb87c3bc77d938f8c7cbc70674bc6889 t=5784725 ev=5534",
		"clos+nacks+ackecon4":             "c7604eb01f4967b00d3f47347190c3bcef85aaf6ac69e66d52f9bd0d4791aa44 t=3585745 ev=5799",
		"clos+adaptive+ackecon4":          "061069a9dcdd11e9ef6eaeb3428d16d3fd73cce7d482625362f106f1ab88046c t=5737624 ev=5651",
		"clos+nacks+adaptive+ackecon4":    "73e1e00d1ea43cf7e4cdc9ae009d55d0b541dbb2b5188305f59e6cef7c910a90 t=4558322 ev=5677",
	}
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
			if got := goldenMixRun(t, opts...); got != want[name] {
				t.Errorf("%s diverged from the pre-refactor capture:\n got %s\nwant %s", name, got, want[name])
			}
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
		want string
	}{
		{"myrinet+tokens", func(c *cluster.Config) { c.Mcast.Multisend = core.ModeTokens },
			"3550f87143c6e5e457f48088253882e069286b4d96f413000cea91983d5eebcb t=4980202 ev=5444"},
		{"myrinet+store-and-forward", func(c *cluster.Config) { c.Mcast.Forward = core.ForwardStoreAndForward },
			"b8ab44e38697671f6f8f0d742f7151dc3ef4b3960ca70d6153d3b9bbbaa008b5 t=6799066 ev=5157"},
		{"myrinet+hold-buffer", func(c *cluster.Config) { c.Mcast.Retransmit = core.RetransmitHoldBuffer },
			"450e8b7c347eba0a8d174256a5ae517faa0b66b8bfa629309de4c1492e915bf1 t=2742778 ev=5010"},
		{"myrinet+hold-buffer+4rxbufs", func(c *cluster.Config) {
			c.Mcast.Retransmit = core.RetransmitHoldBuffer
			c.NIC.RecvBuffers = 4
		}, "674dc79e6ba308d502468e8b2affbf6016fe98aaa8d455067ae5667a7e8787ad t=3724934 ev=5019"},
	}
	for _, a := range ablations {
		if got := goldenMixRun(t, cluster.WithMutate(a.set)); got != a.want {
			t.Errorf("%s diverged from the pre-refactor capture:\n got %s\nwant %s", a.name, got, a.want)
		}
	}
}
