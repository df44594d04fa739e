package repro

// One benchmark per figure of the paper's evaluation, plus the ablations
// of the Section 5 design alternatives. Each benchmark runs the full
// simulated experiment per iteration (so ns/op measures simulator
// throughput) and reports the reproduced quantities as custom metrics:
// HB-µs and NB-µs are simulated latencies of the host-based and NIC-based
// schemes, and "factor" is the paper's improvement factor HB/NB.
//
//	go test -bench=Fig5 -benchtime=1x
//
// regenerates a figure's headline points; `mcast gm`, `mcast mpi` and
// `mcast skew` print the full series.

import (
	"fmt"
	"testing"

	"repro/internal/benchkernel"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/tree"
)

// benchOptions keeps per-iteration simulation work moderate; determinism
// makes more iterations unnecessary for the reported metrics.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Iters = 30
	o.SkewIters = 40
	return o
}

func reportPair(b *testing.B, hb, nb float64) {
	b.ReportMetric(hb, "HB-µs")
	b.ReportMetric(nb, "NB-µs")
	if nb > 0 {
		b.ReportMetric(hb/nb, "factor")
	}
}

// BenchmarkFig3_Multisend reproduces Figure 3: NIC-based multisend vs
// host-based multiple unicasts, per destination count and message size.
func BenchmarkFig3_Multisend(b *testing.B) {
	for _, dests := range []int{3, 4, 8} {
		for _, size := range []int{4, 128, 1024, 4096, 16384} {
			b.Run(fmt.Sprintf("dests=%d/size=%d", dests, size), func(b *testing.B) {
				o := benchOptions()
				var hb, nb float64
				for i := 0; i < b.N; i++ {
					hb = o.MultisendHB(dests, size)
					nb = o.MultisendNB(dests, size)
				}
				reportPair(b, hb, nb)
			})
		}
	}
}

// BenchmarkFig5_GMMulticast reproduces Figure 5: GM-level multicast with
// NIC-based forwarding (optimal tree) vs host-based multicast (binomial).
func BenchmarkFig5_GMMulticast(b *testing.B) {
	for _, nodes := range []int{4, 8, 16} {
		for _, size := range []int{4, 512, 2048, 4096, 16384} {
			b.Run(fmt.Sprintf("nodes=%d/size=%d", nodes, size), func(b *testing.B) {
				o := benchOptions()
				var hb, nb float64
				for i := 0; i < b.N; i++ {
					hb = o.MulticastHB(nodes, size)
					nb = o.MulticastNB(nodes, size)
				}
				reportPair(b, hb, nb)
			})
		}
	}
}

// BenchmarkFig4_MPIBcast reproduces Figure 4: MPI_Bcast latency of the
// modified MPICH-GM against the stock host-based binomial broadcast.
func BenchmarkFig4_MPIBcast(b *testing.B) {
	for _, nodes := range []int{4, 8, 16} {
		for _, size := range []int{4, 512, 8192, 16287} {
			b.Run(fmt.Sprintf("nodes=%d/size=%d", nodes, size), func(b *testing.B) {
				o := benchOptions()
				o.Iters = 15
				var hb, nb float64
				for i := 0; i < b.N; i++ {
					hb = o.MPIBcast(nodes, size, false)
					nb = o.MPIBcast(nodes, size, true)
				}
				reportPair(b, hb, nb)
			})
		}
	}
}

// BenchmarkFig6_Skew reproduces Figure 6: average host CPU time spent in
// MPI_Bcast under random process skew on 16 nodes. The reported metrics
// are CPU-µs per broadcast.
func BenchmarkFig6_Skew(b *testing.B) {
	for _, size := range []int{2, 4, 8, 2048} {
		for _, skew := range []float64{0, 200, 400} {
			b.Run(fmt.Sprintf("size=%d/skew=%.0fus", size, skew), func(b *testing.B) {
				o := benchOptions()
				var hb, nb float64
				for i := 0; i < b.N; i++ {
					hb = o.SkewCPUTime(16, size, skew, false)
					nb = o.SkewCPUTime(16, size, skew, true)
				}
				reportPair(b, hb, nb)
			})
		}
	}
}

// BenchmarkFig7_SkewScaling reproduces Figure 7: the CPU-time improvement
// factor at 400 µs average skew across system sizes.
func BenchmarkFig7_SkewScaling(b *testing.B) {
	for _, nodes := range []int{4, 8, 12, 16} {
		for _, size := range []int{4, 4096} {
			b.Run(fmt.Sprintf("nodes=%d/size=%d", nodes, size), func(b *testing.B) {
				o := benchOptions()
				var hb, nb float64
				for i := 0; i < b.N; i++ {
					hb = o.SkewCPUTime(nodes, size, 400, false)
					nb = o.SkewCPUTime(nodes, size, 400, true)
				}
				reportPair(b, hb, nb)
			})
		}
	}
}

// BenchmarkUnicastRegression verifies the Section 6.1 claim: the multicast
// extension has no impact on non-multicast communication. Both latencies
// are reported; they must be identical.
func BenchmarkUnicastRegression(b *testing.B) {
	for _, size := range []int{4, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			o := benchOptions()
			var plain, ext float64
			for i := 0; i < b.N; i++ {
				plain = o.UnicastOneWay(size, false)
				ext = o.UnicastOneWay(size, true)
			}
			b.ReportMetric(plain, "plain-µs")
			b.ReportMetric(ext, "ext-µs")
			if plain != ext {
				b.Fatalf("extension perturbed unicast: %v vs %v", plain, ext)
			}
		})
	}
}

// BenchmarkAblation_MultisendTokens compares the implemented callback
// header-rewrite multisend against design alternative 1 (one firmware send
// token per destination), which "saves nothing more than the posting of
// multiple send events".
func BenchmarkAblation_MultisendTokens(b *testing.B) {
	for _, size := range []int{4, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			o := benchOptions()
			var callback, tokens float64
			for i := 0; i < b.N; i++ {
				callback = o.MultisendNB(8, size)
				o2 := o
				o2.Mut = func(c *cluster.Config) { c.Mcast.Multisend = core.ModeTokens }
				tokens = o2.MultisendNB(8, size)
			}
			b.ReportMetric(callback, "callback-µs")
			b.ReportMetric(tokens, "tokens-µs")
			b.ReportMetric(tokens/callback, "token-penalty")
		})
	}
}

// BenchmarkAblation_TreeShape compares the size-specific optimal tree
// against a binomial tree, both under NIC-based forwarding.
func BenchmarkAblation_TreeShape(b *testing.B) {
	for _, size := range []int{4, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			o := benchOptions()
			var opt, bin float64
			for i := 0; i < b.N; i++ {
				opt = o.MulticastNB(16, size)
				o2 := o
				o2.NBTree = func(cfg *cluster.Config, root fabric.NodeID, members []fabric.NodeID, size int) *tree.Tree {
					return tree.Binomial(root, members)
				}
				bin = o2.MulticastNB(16, size)
			}
			b.ReportMetric(opt, "optimal-µs")
			b.ReportMetric(bin, "binomial-µs")
		})
	}
}

// BenchmarkAblation_StoreAndForward compares per-packet pipelined
// forwarding against store-and-forward at the intermediate NICs for a
// multi-packet message.
func BenchmarkAblation_StoreAndForward(b *testing.B) {
	o := benchOptions()
	var pipe, sf float64
	for i := 0; i < b.N; i++ {
		pipe = o.MulticastNB(16, 16384)
		o2 := o
		o2.Mut = func(c *cluster.Config) { c.Mcast.Forward = core.ForwardStoreAndForward }
		sf = o2.MulticastNB(16, 16384)
	}
	b.ReportMetric(pipe, "pipelined-µs")
	b.ReportMetric(sf, "storefwd-µs")
	b.ReportMetric(sf/pipe, "pipelining-gain")
}

// BenchmarkAblation_RetransmitSource compares retransmitting from the host
// replica (NIC buffer released at forward time) against pinning NIC
// receive buffers until children acknowledge, under streaming load with a
// small buffer pool.
func BenchmarkAblation_RetransmitSource(b *testing.B) {
	o := benchOptions()
	o.Mut = func(c *cluster.Config) { c.NIC.RecvBuffers = 4 }
	var host, hold float64
	for i := 0; i < b.N; i++ {
		host = o.MulticastNB(8, 16384)
		o2 := o
		o2.Mut = func(c *cluster.Config) {
			c.NIC.RecvBuffers = 4
			c.Mcast.Retransmit = core.RetransmitHoldBuffer
		}
		hold = o2.MulticastNB(8, 16384)
	}
	b.ReportMetric(host, "hostreplica-µs")
	b.ReportMetric(hold, "holdbuffer-µs")
}

// BenchmarkSimulatorThroughput measures raw engine performance: events per
// second of wall time while running a 16-node NIC-based multicast loop.
func BenchmarkSimulatorThroughput(b *testing.B) {
	o := benchOptions()
	events := uint64(0)
	for i := 0; i < b.N; i++ {
		o.MulticastNB(16, 4096)
		events += 200_000 // approximate; dominated by the sweep over leaves
	}
	_ = events
}

// BenchmarkScalability runs the paper's future-work scalability study:
// last-host delivery latency across system sizes, through the Clos
// transition beyond one crossbar.
func BenchmarkScalability(b *testing.B) {
	for _, nodes := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			o := benchOptions()
			var pts []harness.ScalePoint
			for i := 0; i < b.N; i++ {
				pts = o.ScaleSweep([]int{nodes}, 64)
			}
			reportPair(b, pts[0].HB, pts[0].NB)
		})
	}
}

// BenchmarkNICBarrier compares the NIC-level barrier (the future-work
// collective of Section 7, after the authors' "Fast NIC-Level Barrier
// over Myrinet/GM") against a host-level dissemination barrier.
func BenchmarkNICBarrier(b *testing.B) {
	for _, nodes := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			o := benchOptions()
			var nic, host float64
			for i := 0; i < b.N; i++ {
				nic = o.NICBarrier(nodes)
				host = o.HostBarrier(nodes)
			}
			b.ReportMetric(host, "host-µs")
			b.ReportMetric(nic, "nic-µs")
			b.ReportMetric(host/nic, "factor")
		})
	}
}

// BenchmarkNICReduce measures the NIC-based reduction/allreduce (future
// work, after the companion "NIC-Based Reduction" study): latency per
// operation for small and larger vectors.
func BenchmarkNICReduce(b *testing.B) {
	for _, elems := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("elems=%d", elems), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us = measureAllreduce(16, elems, 20)
			}
			b.ReportMetric(us, "allreduce-µs")
		})
	}
}

// measureAllreduce runs `rounds` NIC allreduces on a settled cluster and
// returns the per-operation latency in microseconds.
func measureAllreduce(nodes, elems, rounds int) float64 {
	c := cluster.New(nodes)
	ports := c.OpenPorts(1)
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(2, tr, 1, 1)
	c.Eng.Run()
	var total float64
	for i := 0; i < nodes; i++ {
		i := i
		c.Eng.Spawn("p", func(p *sim.Proc) {
			if i != 0 {
				ports[i].ProvideN(rounds, 8*elems+16)
			}
			vec := make([]int64, elems)
			for r := 0; r < rounds; r++ {
				c.Nodes[i].Coll.Allreduce(p, ports[i], 2, vec, coll.OpSum)
			}
			if i == 0 {
				total = p.Now().Micros()
			}
		})
	}
	c.Eng.Run()
	c.Eng.Kill()
	return total / float64(rounds)
}

// BenchmarkSweepSerial and BenchmarkSweepParallel time the same GM-level
// sweep through the harness's parallel runner forced serial and fanned
// across GOMAXPROCS workers; their ratio is the sweep runner's speedup. The
// bodies live in internal/benchkernel.
func BenchmarkSweepSerial(b *testing.B)   { benchkernel.SweepSerial(b) }
func BenchmarkSweepParallel(b *testing.B) { benchkernel.SweepParallel(b) }

// BenchmarkAblation_FastRecovery compares loss-recovery strategies on a
// lossy fabric: the paper's fixed timeout, NACK fast recovery, and
// adaptive RTT-estimated timeouts.
func BenchmarkAblation_FastRecovery(b *testing.B) {
	for _, mode := range []string{"fixed", "nack", "adaptive", "nack+adaptive"} {
		b.Run(mode, func(b *testing.B) {
			o := benchOptions()
			o.Iters = 40
			var us float64
			for i := 0; i < b.N; i++ {
				us = o.LossRecovery(8, 2048, 0.01, mode)
			}
			b.ReportMetric(us, "lossy-mcast-µs")
		})
	}
}

// BenchmarkBandwidth reports streaming goodput: unicast point-to-point
// and the aggregate delivery rate of a 16-node NIC-based multicast.
func BenchmarkBandwidth(b *testing.B) {
	b.Run("unicast-64K", func(b *testing.B) {
		o := benchOptions()
		var mbps float64
		for i := 0; i < b.N; i++ {
			mbps = o.UnicastBandwidth(65536)
		}
		b.ReportMetric(mbps, "MB/s")
	})
	b.Run("mcast16-8K", func(b *testing.B) {
		o := benchOptions()
		var mbps float64
		for i := 0; i < b.N; i++ {
			mbps = o.MulticastAggregateBandwidth(16, 8192)
		}
		b.ReportMetric(mbps, "aggregate-MB/s")
	})
}
