package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/clos"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// GM endpoints the generator uses. Multicast groups receive on ports 1..8
// (groups that run concurrently get a port each, so a small buffer ring per
// port is enough); roots post from their own port so a root's receive ring
// is never touched by its sends.
const (
	rootPort gm.PortID = 9
	uniPort  gm.PortID = 10
	collPort gm.PortID = 11
	ackPort  gm.PortID = 12

	collGroup gm.GroupID = 100

	// closRecvBuffers is the NIC receive-buffer pool on the Clos fabric. Its
	// links outrun the LANai's PCI DMA 25-fold, so the stock 32 buffers
	// overflow as soon as two 64 KB messages arrive back to back and the
	// workload would measure go-back-N timeouts; 256 holds every message
	// that can be in flight toward one host.
	closRecvBuffers = 256

	// ringBuffers is how many receive buffers a receiver keeps posted per
	// port; each receive re-provides one. A closed-loop root has one message
	// in flight behind the one being consumed, and on the DMA-bound bulk
	// workload the completion event of the one before can still be queued
	// behind their packets — two buffers there retransmit, three never do.
	ringBuffers = 3
)

// groupSpec is one multicast group and the messages its root posts.
type groupSpec struct {
	id      gm.GroupID
	root    fabric.NodeID
	optimal bool      // size-optimal tree instead of binomial
	port    gm.PortID // receive port at every member
	msgs    [][]byte  // payloads in post order; headers filled per repetition
}

// scenario is the generated input of one cluster workload: everything a
// repetition needs, derived from the seed before any timing starts.
type scenario struct {
	nodes    int
	clos     bool // three-tier Clos fabric instead of Myrinet
	shards   int
	lossRate float64
	seed     int64
	groups   []groupSpec
	// hostAck makes every root wait, after each multicast, for a 16-byte
	// host-level acknowledgment from the deepest leaf of its tree (the
	// paper's designated-leaf protocol). NIC-level acknowledgments alone let
	// a root outrun receivers whose host DMA is the bottleneck, and then no
	// fixed buffer ring is enough.
	hostAck bool
	// installTimed makes group install the timed operation: each group is
	// installed and then sent its messages, one group after the other.
	installTimed bool
	// unicast is an open-loop injection schedule (offsets from the start of
	// the timed section) with its payloads.
	unicast     []workload.Message
	unicastData [][]byte
	// collRounds barrier+allreduce rounds, collGap of model time apart, over
	// collVecs[round][host] contributions.
	collRounds int
	collGap    sim.Time
	collVecs   [][][]int64
	maxMsg     int // largest multicast payload, the receive buffer size
	maxUni     int
}

// clusterRep is one repetition's live state.
type clusterRep struct {
	sc    *scenario
	c     *cluster.Cluster
	led   *ledger
	tr    *tracer
	acct  *stepAcct // non-nil: drive the engine event by event and account
	trees []*tree.Tree
	mOps  [][]uint32      // ledger index of each group's messages
	acker []fabric.NodeID // hostAck: each group's acknowledging leaf
	fin   []sim.Time      // finish time of every spawned process
	lag   []sim.Time      // per unicast source: how late the generator ran at worst

	ports     map[gm.PortID][]*gm.Port
	buildNs   int64    // host ns building the cluster
	treeNs    int64    // host ns constructing the groups' trees
	installNs int64    // host ns spent in group install
	installV  sim.Time // model time from install call to a settled table
}

// spawn starts a simulated host process whose finish time counts toward
// the makespan.
func (r *clusterRep) spawn(node fabric.NodeID, name string, fn func(p *sim.Proc)) {
	i := len(r.fin)
	r.fin = append(r.fin, 0)
	r.c.SpawnOn(node, name, func(p *sim.Proc) {
		fn(p)
		r.fin[i] = p.Now()
	})
}

// run drives the cluster to quiescence: the benchmark's own Step loop when
// accounting per event, else the cluster's.
func (r *clusterRep) run() {
	if r.acct != nil { // only ever set on a serial cluster
		r.acct.run(r.c.Eng)
		return
	}
	r.c.Run()
}

func (sc *scenario) options(reg *metrics.Registry) []cluster.Option {
	opts := []cluster.Option{cluster.WithSeed(sc.seed)}
	if sc.clos {
		opts = append(opts, cluster.WithFabric(clos.Default()),
			cluster.WithMutate(func(c *cluster.Config) { c.NIC.RecvBuffers = closRecvBuffers }))
	}
	if sc.shards > 1 {
		opts = append(opts, cluster.WithShards(sc.shards))
	}
	if sc.lossRate > 0 {
		opts = append(opts, cluster.WithLossRate(sc.lossRate))
	}
	if reg != nil {
		opts = append(opts, cluster.WithMetrics(reg))
	}
	return opts
}

// setup builds the cluster and everything that precedes the first timed
// operation: ports, trees, receivers and (unless install is what is timed)
// the group tables.
func (r *clusterRep) setup(reg *metrics.Registry) error {
	sc := r.sc
	id := r.tr.begin("cluster.build")
	t0 := time.Now()
	r.c = cluster.New(sc.nodes, sc.options(reg)...)
	r.buildNs = time.Since(t0).Nanoseconds()
	r.tr.end(id)
	c := r.c
	r.led = newLedger(sc.nodes)
	r.ports = map[gm.PortID][]*gm.Port{rootPort: c.OpenPorts(rootPort)}

	id = r.tr.begin("tree.build")
	t0 = time.Now()
	for _, g := range sc.groups {
		var t *tree.Tree
		if g.optimal {
			t = c.Cfg.OptimalTree(g.root, c.Members(), len(g.msgs[0]))
		} else {
			t = tree.Binomial(g.root, c.Members())
		}
		r.trees = append(r.trees, t)
	}
	r.treeNs = time.Since(t0).Nanoseconds()
	r.tr.end(id)
	if sc.hostAck {
		r.ports[ackPort] = c.OpenPorts(ackPort)
		for _, t := range r.trees {
			r.acker = append(r.acker, deepestLeaf(t))
		}
	}

	// Ledger entries and payload headers, group by group.
	expect := map[gm.PortID][]int{} // per port, per host: messages to receive
	var recvPorts []gm.PortID       // in first-use order, so spawn order is fixed
	groupOfID := map[gm.GroupID]uint32{}
	for gi, g := range sc.groups {
		groupOfID[g.id] = uint32(gi)
		if r.ports[g.port] == nil {
			r.ports[g.port] = c.OpenPorts(g.port)
			expect[g.port] = make([]int, sc.nodes)
			recvPorts = append(recvPorts, g.port)
		}
		var ops []uint32
		for k, m := range g.msgs {
			op := r.led.add(opMcast, g.root, len(m), sc.nodes)
			stampHeader(m, op, uint32(k))
			ops = append(ops, op)
		}
		r.mOps = append(r.mOps, ops)
		for n := 0; n < sc.nodes; n++ {
			if fabric.NodeID(n) != g.root {
				expect[g.port][n] += len(g.msgs)
			}
		}
	}
	for _, port := range recvPorts {
		ports := r.ports[port]
		for n, want := range expect[port] {
			if want == 0 {
				continue
			}
			node, want, p := fabric.NodeID(n), want, ports[n]
			rcv := r.led.receiver(node)
			r.spawn(node, "recv", func(proc *sim.Proc) {
				p.ProvideN(ringBuffers, sc.maxMsg)
				for got := 0; got < want; got++ {
					ev := p.Recv(proc)
					gi := groupOfID[ev.Group]
					rcv.accept(ev.Data, gi, int(node), proc.Now())
					p.Provide(sc.maxMsg)
					if sc.hostAck && r.acker[gi] == node {
						p.Send(proc, sc.groups[gi].root, ackPort, hostAckMsg)
					}
				}
			})
		}
	}

	if sc.installTimed {
		r.run() // receivers start, post their buffers and park
	} else {
		id = r.tr.begin("core.install")
		t0 = time.Now()
		v0 := c.Now()
		var ready []func() bool
		for gi, g := range sc.groups {
			ready = append(ready, c.InstallGroup(g.id, r.trees[gi], g.port, rootPort))
		}
		if sc.collRounds > 0 {
			r.ports[collPort] = c.OpenPorts(collPort)
			ready = append(ready,
				c.InstallGroup(collGroup, tree.Binomial(0, c.Members()), collPort, collPort),
				c.InstallCollGroup(collGroup, c.Members(), collPort))
		}
		r.run() // settle the group tables (receivers start and park here too)
		r.installNs = time.Since(t0).Nanoseconds()
		r.installV = c.Now() - v0
		r.tr.end(id)
		for _, ok := range ready {
			if !ok() {
				return fmt.Errorf("group install did not settle")
			}
		}
	}
	if len(sc.unicast) > 0 {
		r.ports[uniPort] = c.OpenPorts(uniPort)
	}
	return nil
}

// stampHeader rewrites a payload's header for this repetition's ledger; the
// checksum covers only the body, so it stays valid.
func stampHeader(m []byte, op, seq uint32) {
	binary.LittleEndian.PutUint32(m[0:], op)
	binary.LittleEndian.PutUint32(m[4:], seq)
}

// timed runs the measured section and reports the model time it started at.
func (r *clusterRep) timed() (vStart sim.Time) {
	sc, c := r.sc, r.c
	vStart = c.Now()
	if sc.installTimed {
		for gi := range sc.groups {
			r.installAndSend(gi)
		}
		return vStart
	}
	for gi := range sc.groups {
		r.spawnRoot(gi, nil)
	}
	r.spawnUnicast(vStart)
	r.spawnCollectives()
	r.run()
	return vStart
}

// spawnRoot starts the closed-loop sender of one group: it posts the next
// multicast when the previous one is acknowledged. A non-nil postAt
// overrides the recorded post time (install_2048 times from the install).
func (r *clusterRep) spawnRoot(gi int, postAt *sim.Time) {
	g := r.sc.groups[gi]
	port := r.ports[rootPort][g.root]
	ext := r.c.Nodes[g.root].Ext
	ops := r.mOps[gi]
	var acks *gm.Port
	if r.sc.hostAck {
		acks = r.ports[ackPort][g.root]
	}
	r.spawn(g.root, "root", func(p *sim.Proc) {
		if acks != nil {
			acks.ProvideN(2, len(hostAckMsg))
		}
		for k, m := range g.msgs {
			at := p.Now()
			if postAt != nil {
				at = *postAt
			}
			r.led.ops[ops[k]].post = at
			ext.McastSync(p, port, g.id, m)
			if acks != nil {
				acks.Recv(p)
				acks.Provide(len(hostAckMsg))
			}
		}
	})
}

// hostAckMsg is the designated leaf's host-level acknowledgment.
var hostAckMsg = make([]byte, 16)

// deepestLeaf picks the member farthest from the root (the highest ID among
// equals): the host whose receive the root waits for under hostAck.
func deepestLeaf(t *tree.Tree) fabric.NodeID {
	best, bestDepth := t.Root, -1
	for _, n := range t.Nodes() {
		d := 0
		for at := n; ; d++ {
			parent, ok := t.Parent(at)
			if !ok {
				break
			}
			at = parent
		}
		if d >= bestDepth {
			best, bestDepth = n, d
		}
	}
	return best
}

// installAndSend is install_2048's operation: install one new group on
// every member, wait for the tables to settle, then multicast on it.
func (r *clusterRep) installAndSend(gi int) {
	g, c := r.sc.groups[gi], r.c
	id := r.tr.begin("core.install")
	t0 := time.Now()
	v0 := c.Now()
	ready := c.InstallGroup(g.id, r.trees[gi], g.port, rootPort)
	r.run()
	r.installNs += time.Since(t0).Nanoseconds()
	r.installV += c.Now() - v0
	r.tr.end(id)
	if !ready() {
		return // the group's operations stay undelivered and count as failed
	}
	id = r.tr.begin("mcast")
	r.spawnRoot(gi, &v0)
	r.run()
	r.tr.end(id)
}

// spawnUnicast starts the open-loop point-to-point mix: one source process
// per sending host replays its injection schedule, one sink per receiving
// host verifies. Latency counts from the scheduled injection, so a source
// stalled on send tokens charges the wait to the messages behind it.
func (r *clusterRep) spawnUnicast(vStart sim.Time) {
	sc := r.sc
	if len(sc.unicast) == 0 {
		return
	}
	ports := r.ports[uniPort]
	perSrc := make([][]int, sc.nodes)
	perDst := make([]int, sc.nodes)
	seq := map[[2]int]uint32{}
	for i, m := range sc.unicast {
		op := r.led.add(opUcast, 0, len(sc.unicastData[i]), 1)
		r.led.ops[op].post = vStart + m.At
		pair := [2]int{m.Src, m.Dst}
		stampHeader(sc.unicastData[i], op, seq[pair])
		seq[pair]++
		perSrc[m.Src] = append(perSrc[m.Src], i)
		perDst[m.Dst]++
	}
	r.lag = make([]sim.Time, sc.nodes)
	for n := 0; n < sc.nodes; n++ {
		node, port := fabric.NodeID(n), ports[n]
		if want := perDst[n]; want > 0 {
			rcv := r.led.receiver(node)
			r.spawn(node, "sink", func(p *sim.Proc) {
				port.ProvideN(ringBuffers+1, sc.maxUni)
				for got := 0; got < want; got++ {
					ev := port.Recv(p)
					rcv.accept(ev.Data, uint32(ev.Src), 0, p.Now())
					port.Provide(sc.maxUni)
				}
			})
		}
		if list := perSrc[n]; len(list) > 0 {
			r.spawn(node, "src", func(p *sim.Proc) {
				for _, i := range list {
					m := sc.unicast[i]
					due := vStart + m.At
					if due > p.Now() {
						p.Sleep(due - p.Now())
					}
					if late := p.Now() - due; late > r.lag[node] {
						r.lag[node] = late
					}
					port.Send(p, fabric.NodeID(m.Dst), uniPort, sc.unicastData[i])
				}
				for range list {
					port.WaitSendDone(p)
				}
			})
		}
	}
}

// spawnCollectives starts one process per host that runs collRounds rounds
// of NIC barrier + NIC allreduce and checks every result against the
// host-computed reference.
func (r *clusterRep) spawnCollectives() {
	sc := r.sc
	if sc.collRounds == 0 {
		return
	}
	veclen := len(sc.collVecs[0][0])
	bar := make([]uint32, sc.collRounds)
	red := make([]uint32, sc.collRounds)
	want := make([][]int64, sc.collRounds)
	for k := range bar {
		bar[k] = r.led.add(opBarrier, 0, 0, sc.nodes)
		red[k] = r.led.add(opAllreduce, 0, 8*veclen, sc.nodes)
		want[k] = make([]int64, veclen)
		for _, v := range sc.collVecs[k] {
			for j, x := range v {
				want[k][j] += x
			}
		}
	}
	ports := r.ports[collPort]
	for n := 0; n < sc.nodes; n++ {
		n, port, eng := n, ports[n], r.c.Nodes[n].Coll
		r.spawn(fabric.NodeID(n), "coll", func(p *sim.Proc) {
			port.ProvideN(2, 8*veclen)
			for k := 0; k < sc.collRounds; k++ {
				p.Sleep(sc.collGap)
				r.led.ops[bar[k]].enter[n] = p.Now()
				eng.Barrier(p, port, collGroup)
				r.led.deliver(bar[k], n, p.Now(), true)

				r.led.ops[red[k]].enter[n] = p.Now()
				got := eng.Allreduce(p, port, collGroup, sc.collVecs[k][n], coll.OpSum)
				ok := len(got) == veclen
				for j := 0; ok && j < veclen; j++ {
					ok = got[j] == want[k][j]
				}
				r.led.deliver(red[k], n, p.Now(), ok)
				port.Provide(8 * veclen)
			}
		})
	}
}

// makespan is the model time from vStart to the last process finishing.
// Processes that never finished (a stall) are reported separately.
func (r *clusterRep) makespan(vStart sim.Time) sim.Time {
	var end sim.Time
	for _, t := range r.fin {
		if t > end {
			end = t
		}
	}
	return end - vStart
}

// counter sums one named counter of one layer over every NIC, from
// whichever registry the NIC reports into: the shared one of a traced run,
// or the NIC's own when none was wired.
func (r *clusterRep) counter(layer, name string) uint64 {
	var n uint64
	for _, node := range r.c.Nodes {
		n += node.HW.Registry().Counter(layer, int(node.ID), name).Value()
	}
	return n
}

// retransmits sums the three reliability layers' retransmission counters.
func (r *clusterRep) retransmits() uint64 {
	return r.counter("gm", "retransmits") + r.counter("core", "retransmits") + r.counter("coll", "retransmits")
}
