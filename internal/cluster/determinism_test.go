package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// runTraced drives one multicast workload (with retransmission pressure
// from a lossy fabric) and returns the finished cluster and the full packet
// timeline. The metrics option is the only thing varied between runs.
func runTraced(t *testing.T, opt cluster.Option) (*cluster.Cluster, []byte) {
	t.Helper()
	tr := trace.NewRecorder()
	c := cluster.New(8, opt,
		cluster.WithTrace(tr),
		cluster.WithSeed(7),
		cluster.WithLossRate(0.02),
	)
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for !ready() {
			p.Sleep(sim.Micros(1))
		}
		ext := c.Nodes[0].Ext
		for i := 0; i < 5; i++ {
			ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	for i := 1; i < 8; i++ {
		port := ports[i]
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			port.ProvideN(8, 1<<12)
			for got := 0; got < 5; got++ {
				port.Recv(p)
			}
		})
	}
	c.Eng.Run()
	c.Eng.Kill()

	if tr.Len() == 0 {
		t.Fatal("workload recorded no trace events; determinism check is vacuous")
	}
	var buf bytes.Buffer
	tr.WriteTimeline(&buf)
	return c, buf.Bytes()
}

// TestMetricsDoNotPerturbSimulation proves the observability layer is pure
// measurement: the packet-level timeline of a lossy multicast run is
// byte-identical whether the layers' blocks are filed in a registry, in one
// another cluster has filled already, or nowhere. Instrument updates never
// touch the engine, so any divergence here is a bug in the metrics
// threading.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	shared := metrics.New()
	_, on := runTraced(t, cluster.WithMetrics(shared))
	_, again := runTraced(t, cluster.WithMetrics(shared))
	_, off := runTraced(t, cluster.WithMetrics(nil))

	if !bytes.Equal(on, again) {
		t.Errorf("timeline of a second cluster on the same registry differs from the first (%d vs %d bytes)", len(again), len(on))
	}
	if !bytes.Equal(on, off) {
		t.Errorf("timeline with a registry wired differs from none (%d vs %d bytes)", len(on), len(off))
	}
}

// A cluster that is given no registry still files every layer's block in
// one of its own, which a NIC's Registry() reports: a by-name read through
// it — a runner checks "a loss-free fabric never retransmits" that way —
// finds the layer's counter. Cluster.Registry() reports none.
func TestNICRegistryReadsLayerCountersWithNoneWired(t *testing.T) {
	c, _ := runTraced(t, cluster.WithMetrics(nil))
	if c.Registry() != nil {
		t.Error("a cluster given no registry reports one")
	}
	var retransmits uint64
	for _, n := range c.Nodes {
		reg, id := n.HW.Registry(), int(n.ID)
		snap := reg.Snapshot()
		for _, r := range []struct{ layer, name string }{
			{"lanai", "host_events"},
			{"gm", "data_sent"},
			{"core", "mcast_sent"},
		} {
			if got, want := reg.Counter(r.layer, id, r.name).Value(), counter(t, snap, r.layer, id, r.name); got != want {
				t.Errorf("node %d: %s.%s reads %d by name through the NIC's registry, the layer filed %d", id, r.layer, r.name, got, want)
			}
		}
		retransmits += counter(t, snap, "core", id, "retransmits")
	}
	if retransmits == 0 {
		t.Error("a 2 % lossy run read no multicast retransmission through the NICs' registries")
	}
}

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
