package fabric

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// dumbbellTraffic sends one packet each way between host0 and host3 and one
// from host0 to host1, duplicated, and drops a second host3 → host0 packet
// as it leaves the middle switch: every fabric-wide and trunk counter
// moves. A sharded fabric runs under the shard coordinator, its shards on
// goroutines of their own.
func dumbbellTraffic(n *Network, plan Plan) {
	n.DupFn = func(p *Packet, _ *Link) bool { return p.Dst == 1 }
	n.DropFn = func(p *Packet, l *Link) bool { return p.Size == 99 && l.FromLabel() == "M" }
	for i := range n.Hosts() {
		n.Iface(NodeID(i)).Deliver = func(*Packet) {}
	}
	for _, p := range []Packet{
		{Src: 0, Dst: 3, Size: 512},
		{Src: 3, Dst: 0, Size: 256},
		{Src: 3, Dst: 0, Size: 99},
		{Src: 0, Dst: 1, Size: 64},
	} {
		n.Iface(p.Src).Inject(&p)
	}
	if plan.Shards < 2 {
		n.eng.Run()
		return
	}
	engines := make([]*sim.Engine, len(n.sh))
	for i, sh := range n.sh {
		engines[i] = sh.eng
	}
	co := sim.NewShardedMatrix(engines, plan.PairLookahead, n.DrainCross)
	co.SetPending(n.CrossPending)
	co.Run()
}

// shardedDumbbell is the dumbbell on two shards, one engine each: hosts 0
// and 1 with L0 and M on shard 0, hosts 2 and 3 with L1 on shard 1, so
// both shards drive trunks.
func shardedDumbbell() (*Network, Plan) {
	n := dumbbell(100*sim.Nanosecond, 1000*sim.Nanosecond)
	plan := n.Partition(2)
	n.ApplyPlan(plan, []*sim.Engine{n.eng, sim.NewEngine()})
	return n, plan
}

// The counters every shard writes are kept one copy per shard and summed in
// the snapshot, which is the serial run's whichever order SetMetrics and
// ApplyPlan come in: topology builders end with SetMetrics(nil) before a
// cluster applies its plan and wires its registry, and a caller may wire
// the registry first.
func TestShardCopiesSurviveEitherCallOrder(t *testing.T) {
	serial := metrics.New()
	n := dumbbell(100*sim.Nanosecond, 1000*sim.Nanosecond)
	n.SetMetrics(serial)
	dumbbellTraffic(n, Plan{Shards: 1})
	want := serial.Snapshot()
	for name, v := range map[string]uint64{"injected": 4, "delivered": 4, "dropped": 1, "duplicated": 1, "trunk_tx_bytes": 2 * (512 + 256 + 99), "trunk_drops": 1} {
		if got := want.Counter(Component, metrics.NodeFabric, name); got != v {
			t.Errorf("serial run: net.%s = %d, want %d", name, got, v)
		}
	}

	for _, order := range []string{"plan, then registry", "registry, then plan"} {
		reg := metrics.New()
		var n *Network
		var plan Plan
		if order == "plan, then registry" {
			n, plan = shardedDumbbell()
			n.SetMetrics(reg)
		} else {
			n = dumbbell(100*sim.Nanosecond, 1000*sim.Nanosecond)
			n.SetMetrics(reg)
			plan = n.Partition(2)
			n.ApplyPlan(plan, []*sim.Engine{n.eng, sim.NewEngine()})
		}
		dumbbellTraffic(n, plan)
		if got := reg.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded snapshot differs from the serial one:\n%+v\nvs\n%+v", order, got, want)
		}
		for _, sh := range n.sh {
			if sh.m != n.m.shards[sh.id] || sh.m.injected.Value() != 2 || sh.m.trunk.txBytes.Value() == 0 {
				t.Errorf("%s: shard %d is not counting into its own copy", order, sh.id)
			}
		}
	}
}

// Fabrics sharing a registry share its blocks: a serial one and a sharded
// one count into the same per-shard copies, and the snapshot holds the sum
// of both runs.
func TestShardCopiesSharedAcrossFabrics(t *testing.T) {
	reg := metrics.New()
	for i := range 3 {
		n, plan := dumbbell(100*sim.Nanosecond, 1000*sim.Nanosecond), Plan{Shards: 1}
		if i > 0 {
			n, plan = shardedDumbbell()
		}
		n.SetMetrics(reg)
		dumbbellTraffic(n, plan)
	}
	s := reg.Snapshot()
	if got := s.Counter(Component, metrics.NodeFabric, "injected"); got != 12 {
		t.Errorf("three fabrics' net.injected = %d, want 12", got)
	}
	if got := s.Counter(Component, metrics.NodeFabric, "trunk_drops"); got != 3 {
		t.Errorf("three fabrics' net.trunk_drops = %d, want 3", got)
	}
	if b := metrics.Attach[instruments](reg, Component, metrics.NodeFabric); len(b.shards) != 2 {
		t.Errorf("the shared fabric-wide block has %d copies, want one per shard, 2", len(b.shards))
	}
}

// No by-name lookup hands out a fabric-wide or trunk counter: the
// registry's would be a sum no shard writes. A host's counters are found as
// before.
func TestByNameLookupRefusesShardCopies(t *testing.T) {
	reg := metrics.New()
	n, _ := shardedDumbbell()
	n.SetMetrics(reg)
	if reg.Counter(Component, 0, "uplink_tx_bytes") != &n.links[0].wire.txBytes {
		t.Fatal("host0's uplink_tx_bytes was not found by name")
	}
	for _, name := range []string{"injected", "link_busy_ns", "trunk_tx_bytes"} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "net."+name+" is a sum") {
					t.Errorf("looking up net.%s by name: recovered %q, want a panic", name, msg)
				}
			}()
			reg.Counter(Component, metrics.NodeFabric, name)
		}()
	}
}
