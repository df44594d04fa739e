package cluster_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/golden"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// engineLogs records each engine's fired events in fire order, one log per
// engine, so a sharded run records race-free.
type engineLogs struct {
	perEngine [][]golden.Event
}

func logEngines(c *cluster.Cluster) *engineLogs {
	h := &engineLogs{perEngine: make([][]golden.Event, len(c.Engines()))}
	for i, e := range c.Engines() {
		e.SetFireHook(func(when sim.Time, key uint64) {
			h.perEngine[i] = append(h.perEngine[i], golden.Event{When: when, Key: key})
		})
	}
	return h
}

// gmShardRun drives a NIC-based multicast workload — install a binomial
// tree, then five pipelined multicasts from the root — on a cluster with
// the given shard count, returning the merged event timeline with the final
// clock, and each node's delivery times.
func gmShardRun(t *testing.T, nodes, shards int, msgs int) (golden.Capture, [][]sim.Time) {
	t.Helper()
	c := cluster.New(nodes, cluster.WithShards(shards), cluster.WithSeed(11))
	stream := golden.Hook(c.Engines())
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)

	deliveries := make([][]sim.Time, nodes)
	for i := 1; i < nodes; i++ {
		i := i
		port := ports[i]
		c.SpawnOn(fabric.NodeID(i), fmt.Sprintf("recv%d", i), func(p *sim.Proc) {
			port.ProvideN(msgs+2, 1<<12)
			for got := 0; got < msgs; got++ {
				port.Recv(p)
				deliveries[i] = append(deliveries[i], p.Now())
			}
		})
	}

	// Phase 1: firmware installs the group on every member; receivers post
	// their tokens and park. Run to quiescence — the sharded barrier after
	// which cross-shard completion flags are safe to read.
	c.Run()
	if !ready() {
		t.Fatalf("group install incomplete after quiescence (shards=%d)", shards)
	}

	// Phase 2: root multicasts.
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for i := 0; i < msgs; i++ {
			ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	c.Run()
	cp := golden.Capture{Clock: c.Now(), Events: c.EventsFired(), Stream: stream()}
	c.Kill()
	return cp, deliveries
}

// TestShardedGMEquivalence is the acceptance bar for the conservative PDES
// mode: for identical seeds, the sharded engine's full event timeline —
// every (timestamp, tiebreak key) pair — and every delivery time must be
// byte-identical to the serial engine's, across shard counts, on a
// multi-switch fabric where real cross-shard traffic occurs.
func TestShardedGMEquivalence(t *testing.T) {
	const nodes, msgs = 32, 5
	serial, serialDel := gmShardRun(t, nodes, 1, msgs)
	if len(serial.Stream) == 0 {
		t.Fatal("serial run fired no events; equivalence check is vacuous")
	}
	for _, shards := range []int{2, 4} {
		sharded, del := gmShardRun(t, nodes, shards, msgs)
		golden.Equal(t, serial, sharded)
		if !reflect.DeepEqual(del, serialDel) {
			t.Errorf("shards=%d: delivery times differ from the serial run's", shards)
		}
	}
}

// faultedClosRun streams multicasts down a binomial tree of 32 hosts on a
// leaf-spine Clos of radix 8 (4 hosts a leaf, so 2 and 4 shards cut only
// trunks) under two fault rules, and returns the registry's snapshot, one
// instrument a line, without the coordinator's own "sim" instruments. Each
// rule is a pure function of the packet and the clock of the link it is
// on, so it keeps no state a shard could race on and decides alike on any
// shard count: the first 40 µs lose every third multicast data packet
// crossing a trunk, and every multicast data packet to an odd host with an
// even sequence number is delivered twice.
func faultedClosRun(t *testing.T, shards int) golden.Capture {
	t.Helper()
	const nodes, msgs = 32, 4
	fc := clos.Default()
	fc.Radix = 8
	reg := metrics.New()
	c := cluster.New(nodes, cluster.WithFabric(fc), cluster.WithShards(shards), cluster.WithMetrics(reg), cluster.WithSeed(5))
	mcastData := func(p *fabric.Packet) (*gm.Frame, bool) {
		fr, ok := p.Payload.(*gm.Frame)
		return fr, ok && fr.Kind == gm.KindMcastData
	}
	c.Net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := mcastData(p)
		return ok && !l.Touches(p.Src) && !l.Touches(p.Dst) &&
			c.Net.LinkNow(l) < 40*sim.Microsecond && (fr.Seq+uint32(p.Dst))%3 == 0
	}
	c.Net.DupFn = func(p *fabric.Packet, _ *fabric.Link) bool {
		fr, ok := mcastData(p)
		return ok && p.Dst%2 == 1 && fr.Seq%2 == 0
	}
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(7, tree.Binomial(0, c.Members()), 1, 1)
	c.Run()
	if !ready() {
		t.Fatalf("shards=%d: group install incomplete after quiescence", shards)
	}
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			c.Nodes[0].Ext.McastSync(p, ports[0], 7, make([]byte, 2000))
		}
	})
	for i := 1; i < nodes; i++ {
		port := ports[i]
		c.SpawnOn(fabric.NodeID(i), "recv", func(p *sim.Proc) {
			port.ProvideN(msgs+3, 1<<12)
			for got := 0; got < msgs; got++ {
				port.Recv(p)
			}
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("shards=%d: %d processes never finished", shards, live)
	}
	c.Kill()
	s := reg.Snapshot()
	var lines []string
	for _, v := range s.Counters {
		if v.Component != "sim" {
			lines = append(lines, fmt.Sprintf("counter %v %d", v.Key, v.Value))
		}
	}
	for _, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %v %d high=%d", v.Key, v.Value, v.High))
	}
	for _, v := range s.Histograms {
		if v.Component != "sim" {
			lines = append(lines, fmt.Sprintf("hist %v %d %d %d %d %v", v.Key, v.Count, v.Sum, v.Min, v.Max, v.Buckets))
		}
	}
	return golden.Capture{Lines: lines}
}

// TestShardedMetricsEquivalence runs a faulted Clos workload that writes
// every fabric-wide and trunk counter — injected, delivered, dropped,
// duplicated, link busy time, trunk bytes and trunk drops — on 2 and 4
// shards, each writing its own copy of them, and checks the registry's
// snapshot against the serial run's, line for line. Under -race it is the
// check that no instrument has two writers.
func TestShardedMetricsEquivalence(t *testing.T) {
	serial := faultedClosRun(t, 1)
	for _, name := range []string{"injected", "delivered", "dropped", "duplicated", "link_busy_ns", "trunk_tx_bytes", "trunk_drops"} {
		if !slices.ContainsFunc(serial.Lines, func(l string) bool {
			return strings.HasPrefix(l, "counter net."+name+" ") && !strings.HasSuffix(l, " 0")
		}) {
			t.Errorf("the serial run never moved net.%s; the check would be vacuous", name)
		}
	}
	for _, shards := range []int{2, 4} {
		golden.Equal(t, serial, faultedClosRun(t, shards))
	}
}

// TestGoldenEqualNamesDelayedEvent delays one event of a 2-shard run by a
// nanosecond: the comparator must name that event, not only say the runs
// differ.
func TestGoldenEqualNamesDelayedEvent(t *testing.T) {
	a, _ := gmShardRun(t, 16, 2, 3)
	b := a
	b.Stream = slices.Clone(a.Stream)
	k := len(b.Stream) / 2
	b.Stream[k].When++
	r := &reportTB{TB: t}
	golden.Equal(r, a, b)
	e := a.Stream[k]
	want := fmt.Sprintf(`first divergence at event %d (t=%d key=%#x domain=%d); first run has "%d %d:%d"`,
		k, e.When+1, e.Key, e.Key>>48, e.When, e.Key>>48, e.Key&(1<<48-1))
	if !strings.Contains(r.report, want) {
		t.Errorf("report lacks %q:\n%s", want, r.report)
	}
}

// take returns every engine's fire log so far and starts new ones.
func (h *engineLogs) take() [][]golden.Event {
	logs := h.perEngine
	h.perEngine = make([][]golden.Event, len(logs))
	return logs
}

// balanceRun drives two concurrent multicast groups, roots at n/4 and 3n/4,
// each posting two 32 KB messages, on a cluster with the given shard count.
// It returns the final clock, the events fired, when sharded the
// coordinator's accounting, and each engine's fire log per Run call (the
// install, then the multicasts).
func balanceRun(t *testing.T, nodes, shards int, opts ...cluster.Option) (sim.Time, uint64, sim.ShardStats, [][][]golden.Event) {
	t.Helper()
	const groups, msgs, size = 2, 2, 32 << 10
	c := cluster.New(nodes, append([]cluster.Option{cluster.WithShards(shards), cluster.WithSeed(1)}, opts...)...)
	h := logEngines(c)
	roots := make([]fabric.NodeID, groups)
	ports := make([][]*gm.Port, groups)
	var ready []func() bool
	for g := range roots {
		roots[g] = fabric.NodeID((2*g + 1) * nodes / (2 * groups))
		port := gm.PortID(1 + g)
		ports[g] = c.OpenPorts(port)
		ready = append(ready, c.InstallGroup(gm.GroupID(1+g), tree.Binomial(roots[g], c.Members()), port, port))
		for i, p := range ports[g] {
			if fabric.NodeID(i) == roots[g] {
				continue
			}
			c.SpawnOn(fabric.NodeID(i), "recv", func(proc *sim.Proc) {
				p.ProvideN(msgs, size)
				for got := 0; got < msgs; got++ {
					p.Recv(proc)
				}
			})
		}
	}
	// Install to quiescence first: the completion flags are safe to read
	// only behind a sharded barrier.
	c.Run()
	runs := [][][]golden.Event{h.take()}
	for g, ok := range ready {
		if !ok() {
			t.Fatalf("shards=%d: group %d install incomplete", shards, g)
		}
	}
	for g, root := range roots {
		c.SpawnOn(root, "root", func(proc *sim.Proc) {
			for k := 0; k < msgs; k++ {
				c.Nodes[root].Ext.McastSync(proc, ports[g][root], gm.GroupID(1+g), make([]byte, size))
			}
		})
	}
	c.Run()
	runs = append(runs, h.take())
	if live := c.LiveProcs(); live != 0 {
		t.Fatalf("shards=%d: %d processes never finished", shards, live)
	}
	var st sim.ShardStats
	if sh := c.Sharded(); sh != nil {
		st = sh.Stats()
	}
	end, fired := c.Now(), c.EventsFired()
	c.Kill()
	return end, fired, st, runs
}

// nullMessageCritical is the unit-cost critical path of one Run on two
// shards under null-message (Chandy–Misra–Bryant) synchronization, which
// has no windows: each shard promises "no input before t" once it has fired
// everything before t − look. So an event at time t on shard d can fire
// once its predecessor on d has, and once every event of the other shard at
// time <= t − look has. Each event costs one. logs are the two engines'
// fire logs, each in fire order and so in time order.
func nullMessageCritical(logs [][]golden.Event, look sim.Time) uint64 {
	var fin [2][]uint64 // each event's finish step, per shard
	var dep [2]int      // how many of the other shard's events each shard's next event waits for
	var crit uint64
	for len(fin[0]) < len(logs[0]) || len(fin[1]) < len(logs[1]) {
		// Take the earlier of the two shards' next events: everything the
		// other shard fired before t is then done.
		d := 0
		if i, j := len(fin[0]), len(fin[1]); i == len(logs[0]) || j < len(logs[1]) && logs[1][j].When < logs[0][i].When {
			d = 1
		}
		o, i := 1-d, len(fin[d])
		t := logs[d][i].When
		var f uint64
		if i > 0 {
			f = fin[d][i-1]
		}
		for dep[d] < len(logs[o]) && logs[o][dep[d]].When <= t-look {
			dep[d]++
		}
		if dep[d] > 0 {
			f = max(f, fin[o][dep[d]-1]) // finish steps rise along a shard
		}
		fin[d] = append(fin[d], f+1)
		crit = max(crit, f+1)
	}
	return crit
}

// TestShardedWindowBalance pins the common window end on the bulk pattern:
// two groups whose roots sit on different shards keep both shards busy in
// the same windows, so a per-shard end would put the shards out of phase
// and charge the barrier the busier one every window. The bound is
// ShardStats.SpeedupBound, a deterministic count: the common end gives 1.79
// on the Clos and 1.31 on Myrinet, per-shard ends 1.35 and 1.22. Sharding
// must still leave the clock and the event count of the serial run.
//
// Beside it sits the bound null-message synchronization would allow, with
// no windows at all (nullMessageCritical, each Run on its own): 1.86 on the
// Clos, 4 % above the window bound, so there the window rule is not what
// keeps a 2-shard run from 2x; 1.48 on Myrinet, 13 % above it. Both
// topologies cut links of one latency, so every dependency of a
// null-message run is also one of the windows' and its critical path can
// only be shorter.
func TestShardedWindowBalance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    int
		bound    float64
		nullCrit uint64 // exact null-message critical path, summed over the Run calls
		opts     []cluster.Option
	}{
		{"clos", 256, 1.7, 75294, []cluster.Option{cluster.WithFabric(clos.Default()),
			cluster.WithMutate(func(c *cluster.Config) { c.NIC.RecvBuffers = 256 })}},
		{"myrinet", 128, 1.27, 35371, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialEnd, serialFired, _, _ := balanceRun(t, tc.nodes, 1, tc.opts...)
			end, fired, st, runs := balanceRun(t, tc.nodes, 2, tc.opts...)
			if end != serialEnd || fired != serialFired {
				t.Fatalf("2 shards: clock %v, %d events; serial %v, %d events", end, fired, serialEnd, serialFired)
			}
			if b := st.SpeedupBound(); b < tc.bound {
				t.Fatalf("speedup bound %.3f (critical %d of %v events, %d windows), want >= %.2f",
					b, st.Critical, st.Events, st.Windows, tc.bound)
			}
			var nullCrit uint64
			for _, logs := range runs {
				nullCrit += nullMessageCritical(logs, sim.Time(st.LookaheadNs))
			}
			nullBound := float64(fired) / float64(nullCrit)
			t.Logf("window bound %.3f (critical %d), null-message bound %.3f (critical %d), %d events",
				st.SpeedupBound(), st.Critical, nullBound, nullCrit, fired)
			if nullCrit != tc.nullCrit {
				t.Errorf("null-message critical path %d events, want %d", nullCrit, tc.nullCrit)
			}
			if nullCrit > st.Critical {
				t.Errorf("null-message critical path %d above the windows' %d", nullCrit, st.Critical)
			}
		})
	}
}

// TestShardsExceedNodes pins the edge case: asking for more shards than
// nodes clamps to one shard per node and still reproduces the serial
// timeline.
func TestShardsExceedNodes(t *testing.T) {
	const nodes, msgs = 4, 3
	serial, _ := gmShardRun(t, nodes, 1, msgs)
	clamped, _ := gmShardRun(t, nodes, 16, msgs)
	golden.Equal(t, serial, clamped)
}

// TestShardOptionValidation pins the sentinel panics for configurations
// sharding cannot honor.
func TestShardOptionValidation(t *testing.T) {
	mustPanic := func(name string, want error, build func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			err, ok := r.(error)
			if !ok || err != want {
				t.Errorf("%s: panicked with %v, want %v", name, r, want)
			}
		}()
		build()
	}
	mustPanic("loss", fabric.ErrShardsWithLossRate, func() {
		cluster.New(8, cluster.WithShards(2), cluster.WithLossRate(0.01))
	})
}

// receiveBuffers runs msgs one-message multicasts of size bytes, one after
// the other, from node 0 to every other node of an n-node cluster, in one
// Run. Each receive loop only receives and provides, and gives its last
// event back. It returns the cluster and, per node, the host buffer each
// message landed in.
func receiveBuffers(t *testing.T, nodes, msgs, size int, opts ...cluster.Option) (*cluster.Cluster, [][]*byte) {
	t.Helper()
	c := cluster.New(nodes, opts...)
	ports := c.OpenPorts(1)
	ready := c.InstallGroup(5, tree.Binomial(0, c.Members()), 1, 1)
	seen := make([][]*byte, nodes) // per node, so shards record race-free
	for n := 1; n < nodes; n++ {
		c.SpawnOn(fabric.NodeID(n), "recv", func(p *sim.Proc) {
			ports[n].Provide(size)
			for range msgs {
				seen[n] = append(seen[n], &ports[n].Recv(p).Data[0])
				ports[n].Provide(size)
			}
			ports[n].TryRecv()
		})
	}
	c.Run()
	if !ready() {
		t.Fatal("group install did not settle")
	}
	c.SpawnOn(0, "root", func(p *sim.Proc) {
		for range msgs {
			c.Nodes[0].Ext.McastSync(p, ports[0], 5, make([]byte, size))
		}
	})
	c.Run()
	for n := 1; n < nodes; n++ {
		if len(seen[n]) != msgs {
			t.Fatalf("node %d received %d messages, want %d", n, len(seen[n]), msgs)
		}
	}
	return c, seen
}

// Each shard keeps its own pool of spare host buffers: a buffer taken back on
// one shard serves the next message at any port there (63 receivers use
// fewer buffers than ports, or the test would show nothing) and never one on
// another shard, whose engine runs on another goroutine.
func TestShardedSparesStayOnTheirShard(t *testing.T) {
	const nodes, msgs = 64, 6
	c, seen := receiveBuffers(t, nodes, msgs, 1<<10, cluster.WithShards(2))
	if c.Shards() != 2 {
		t.Fatalf("built %d shards, want 2", c.Shards())
	}
	shardOf := map[*byte]*sim.Engine{}
	for n := 1; n < nodes; n++ {
		eng := c.EngineOf(fabric.NodeID(n))
		for _, b := range seen[n] {
			if other, ok := shardOf[b]; ok && other != eng {
				t.Fatalf("node %d received in a buffer another shard had used", n)
			}
			shardOf[b] = eng
		}
	}
	if len(shardOf) >= nodes-1 {
		t.Errorf("%d receivers landed their messages in %d distinct buffers: no port took another's spare", nodes-1, len(shardOf))
	}
	c.Kill()
}
