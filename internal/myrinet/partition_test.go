package myrinet_test

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/myrinet"
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

// TestPartitionDeterministic: the partitioner is part of the determinism
// contract — the same fabric must yield the same plan every time, or
// sharded runs would not be reproducible.
func TestPartitionDeterministic(t *testing.T) {
	build := func() fabric.Plan {
		net := myrinet.NewClos(sim.NewEngine(), 16, 8, myrinet.DefaultLinkParams())
		return net.Partition(4)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plans differ across identical builds:\n%+v\n%+v", a, b)
	}
}

// TestPartitionBalancedContiguous: hosts land in contiguous balanced
// blocks — consecutive IDs share leaf switches, so contiguity keeps the
// short host<->leaf links interior to a shard.
func TestPartitionBalancedContiguous(t *testing.T) {
	for _, tc := range []struct{ hosts, shards int }{
		{16, 4}, {16, 2}, {12, 3}, {10, 4}, // 10/4: uneven blocks
	} {
		net := myrinet.NewClos(sim.NewEngine(), tc.hosts, 8, myrinet.DefaultLinkParams())
		plan := net.Partition(tc.shards)
		counts := make([]int, plan.Shards)
		prev := 0
		for h, s := range plan.HostShard {
			if s < prev {
				t.Fatalf("%d hosts/%d shards: host %d in shard %d after shard %d (not contiguous)",
					tc.hosts, tc.shards, h, s, prev)
			}
			prev = s
			counts[s]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("%d hosts/%d shards: unbalanced host blocks %v", tc.hosts, tc.shards, counts)
		}
	}
}

// TestPartitionClamp: requests outside [1, hosts] clamp rather than panic
// (shards > hosts is the documented shards-exceed-nodes edge case).
func TestPartitionClamp(t *testing.T) {
	net := myrinet.NewSingleSwitch(sim.NewEngine(), 4, myrinet.DefaultLinkParams())
	if got := net.Partition(0).Shards; got != 1 {
		t.Fatalf("Partition(0).Shards = %d, want 1", got)
	}
	if got := net.Partition(-3).Shards; got != 1 {
		t.Fatalf("Partition(-3).Shards = %d, want 1", got)
	}
	if got := net.Partition(64).Shards; got != 4 {
		t.Fatalf("Partition(64).Shards = %d, want 4 (clamped to hosts)", got)
	}
}

// TestPartitionLookahead: with uniform link parameters the conservative
// window width is exactly the link latency, and a multi-shard Clos always
// has cut links for it to apply to.
func TestPartitionLookahead(t *testing.T) {
	params := myrinet.DefaultLinkParams()
	net := myrinet.NewClos(sim.NewEngine(), 16, 8, params)
	for _, shards := range []int{1, 2, 4} {
		plan := net.Partition(shards)
		if plan.Lookahead != params.Latency {
			t.Fatalf("%d shards: lookahead %v, want link latency %v", shards, plan.Lookahead, params.Latency)
		}
		if shards > 1 && plan.CutLinks == 0 {
			t.Fatalf("%d shards: no cut links in a multi-shard Clos", shards)
		}
		if shards == 1 && plan.CutLinks != 0 {
			t.Fatalf("1 shard: %d cut links, want 0", plan.CutLinks)
		}
	}
}

// TestCrossShardHandoffAllocs gates the boundary-handoff hot path at zero
// allocations per packet: transits come from per-shard pools, routes are
// computed into them, drained messages land in a reused buffer sorted by a
// pre-boxed sorter, and tiebreak keys are plain counter draws. The engines
// are driven by hand — inject, run source shard, drain mailboxes, run
// destination shard — so the measurement isolates the per-packet path from
// the coordinator's per-run goroutine setup.
func TestCrossShardHandoffAllocs(t *testing.T) {
	e0, e1 := sim.NewEngine(), sim.NewEngine()
	net := myrinet.NewClos(e0, 8, 4, myrinet.DefaultLinkParams())
	reg := metrics.New()
	net.SetMetrics(reg)
	plan := net.Partition(2)
	net.ApplyPlan(plan, []*sim.Engine{e0, e1})
	for i := 0; i < 8; i++ {
		net.Iface(fabric.NodeID(i)).Deliver = func(*fabric.Packet) {}
	}
	src := fabric.NodeID(0)
	dst := fabric.NodeID(-1)
	for i := 0; i < 8; i++ {
		if net.HostShard(fabric.NodeID(i)) != net.HostShard(src) {
			dst = fabric.NodeID(i)
			break
		}
	}
	if dst < 0 {
		t.Fatal("partition put every host in one shard")
	}

	p := &fabric.Packet{Src: src, Dst: dst, Size: 1024}
	cycle := func() {
		net.Iface(src).Inject(p)
		for {
			e0.Run()
			e1.Run()
			if net.DrainCross() == 0 {
				break
			}
		}
		e0.Run()
		e1.Run()
		// Align clocks so every iteration starts from an identical state.
		t := e0.Now()
		if e1.Now() > t {
			t = e1.Now()
		}
		e0.RunUntil(t)
		e1.RunUntil(t)
	}
	// Warm up pools and mailbox capacity.
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("cross-shard handoff allocates %.2f per packet, want 0", avg)
	}
	if counter(t, reg.Snapshot(), fabric.Component, metrics.NodeFabric, "delivered") == 0 {
		t.Fatal("no packets delivered — cycle is not exercising the path")
	}
}
