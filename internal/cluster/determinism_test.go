package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/golden"
	"repro/internal/metrics"
)

// TestMetricsDoNotPerturbSimulation proves the observability layer is pure
// measurement: the packet-level timeline of the pinned lossy multicast run
// is unchanged whether the layers' blocks are filed in a registry, in one
// another cluster has filled already, or nowhere. Instrument updates never
// touch the engine, so any divergence here is a bug in the metrics
// threading.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	shared := metrics.New()
	for _, reg := range []*metrics.Registry{shared, shared, nil} {
		c, _ := goldenRun(t, 8, 7, 0.02, 5, cluster.WithMetrics(reg))
		golden.Check(t, "TestMyrinetTimelineGoldens", "8-node-lossy", c)
	}
}

// A cluster that is given no registry still files every layer's block in
// one of its own, which a NIC's Registry() reports: a by-name read through
// it — a runner checks "a loss-free fabric never retransmits" that way —
// finds the layer's counter. Cluster.Registry() reports none.
func TestNICRegistryReadsLayerCountersWithNoneWired(t *testing.T) {
	_, c := goldenRun(t, 8, 7, 0.02, 5, cluster.WithMetrics(nil))
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
