package fabric

import "repro/internal/metrics"

// Component is the metrics component name for the fabric layer. Every
// backend shares it: the invariant checkers (chaos campaigns, membership
// scenarios) read injected/delivered/dropped/duplicated under this
// component regardless of which fabric carried the traffic.
const Component = "net"

// The fabric counts into four kinds of block, the instruments by value in
// each. A link caches pointers to the two groups that are its own: the wire
// it drives and the output port it queues behind. Every instrument has one
// writer, the shard that fires the events it counts: a host's and a
// switch's are their vertex's shard's, and the counters every shard would
// write — the fabric-wide ones and the trunks' — are kept one copy per
// shard and summed where the registry takes a snapshot.

// shardInstruments is one shard's copy of the counters every shard writes.
// The packet path reaches it through its shardState, a trunk link through
// its wire, which points at the copy of the shard driving the link.
type shardInstruments struct {
	injected   metrics.Counter
	delivered  metrics.Counter
	dropped    metrics.Counter
	duplicated metrics.Counter
	linkBusyNs metrics.Counter
	trunk      wireInstruments
}

// instruments is the fabric-wide block, filed under NodeFabric: one copy of
// its counters per shard. Each reports their sum, and SummedCopies keeps a
// by-name lookup from handing that sum out.
type instruments struct{ shards []*shardInstruments }

// shard returns shard s's copy, made on first use. A copy never moves, so a
// block shared by several fabrics — clusters on one registry, of any shard
// counts — keeps serving the copies each of them holds.
func (m *instruments) shard(s int) *shardInstruments {
	for len(m.shards) <= s {
		m.shards = append(m.shards, new(shardInstruments))
	}
	return m.shards[s]
}

// sum adds up every shard's copy.
func (m *instruments) sum() *shardInstruments {
	t := new(shardInstruments)
	for _, c := range m.shards {
		t.injected.Add(c.injected.Value())
		t.delivered.Add(c.delivered.Value())
		t.dropped.Add(c.dropped.Value())
		t.duplicated.Add(c.duplicated.Value())
		t.linkBusyNs.Add(c.linkBusyNs.Value())
		t.trunk.txBytes.Add(c.trunk.txBytes.Value())
		t.trunk.drops.Add(c.trunk.drops.Value())
	}
	return t
}

// SummedCopies marks the block as one whose Each reports sums (see package
// metrics).
func (m *instruments) SummedCopies() {}

func (m *instruments) Each(v *metrics.Visitor) {
	t := m.sum()
	v.Counter("injected", &t.injected)
	v.Counter("delivered", &t.delivered)
	v.Counter("dropped", &t.dropped)
	v.Counter("duplicated", &t.duplicated)
	v.Counter("link_busy_ns", &t.linkBusyNs)
}

// wireInstruments count what one class of link carried and lost.
type wireInstruments struct {
	txBytes metrics.Counter
	drops   metrics.Counter
}

// portInstruments count the waits at one vertex's output ports:
// serialization stalls behind a busy port, and PFC pauses.
type portInstruments struct {
	stallNs   metrics.Counter
	contended metrics.Counter
	pauses    metrics.Counter
	pauseNs   metrics.Counter
}

// hostInstruments is one host's block, filed under its node ID: its uplink
// (wire and injection port) and the wire of its downlink.
type hostInstruments struct {
	up     wireInstruments
	upPort portInstruments
	down   wireInstruments
}

func (m *hostInstruments) Each(v *metrics.Visitor) {
	v.Counter("uplink_tx_bytes", &m.up.txBytes)
	v.Counter("uplink_drops", &m.up.drops)
	v.Counter("uplink_stall_ns", &m.upPort.stallNs)
	v.Counter("uplink_contended", &m.upPort.contended)
	v.Counter("uplink_pfc_pauses", &m.upPort.pauses)
	v.Counter("uplink_pfc_pause_ns", &m.upPort.pauseNs)
	v.Counter("downlink_tx_bytes", &m.down.txBytes)
	v.Counter("downlink_drops", &m.down.drops)
}

// switchInstruments is one switch's block, filed under its vertex index —
// a number a host may have too, which is why a key can hold one block per
// type.
type switchInstruments struct{ port portInstruments }

func (m *switchInstruments) Each(v *metrics.Visitor) {
	v.Counter("switch_stall_ns", &m.port.stallNs)
	v.Counter("switch_contended", &m.port.contended)
	v.Counter("switch_pfc_pauses", &m.port.pauses)
	v.Counter("switch_pfc_pause_ns", &m.port.pauseNs)
}

// trunkInstruments is the block of all switch-to-switch links together,
// filed under NodeFabric by fabrics that have any. Its counters are the
// trunk fields of the fabric-wide block's per-shard copies, summed.
type trunkInstruments struct{ fabric *instruments }

func (m *trunkInstruments) SummedCopies() {}

func (m *trunkInstruments) Each(v *metrics.Visitor) {
	t := m.fabric.sum()
	v.Counter("trunk_tx_bytes", &t.trunk.txBytes)
	v.Counter("trunk_drops", &t.trunk.drops)
}

// SetMetrics makes the fabric count into reg: one block for the fabric, one
// per host, one per switch, each the one filed under its key (a new one
// unless another fabric sharing reg filed it first); every link is pointed
// at its groups, and every shard at its copy of the fabric-wide counters,
// so the per-packet path does no lookup. A nil reg gives the fabric blocks
// of its own — every topology builder ends with SetMetrics(nil), since a
// link counts from its first packet. SetMetrics and ApplyPlan may come in
// either order: whichever runs last points the shards at their copies.
// Bytes and drops are attributed to the host endpoint of host-attached
// links (trunk links fall to the fabric pseudo node); serialization stalls
// are attributed to the vertex whose output port was busy — the injecting
// host, or the contended switch. PFC pause counts and pause time follow the
// stall attribution.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.m = metrics.Attach[instruments](reg, Component, metrics.NodeFabric)
	hosts := make([]*hostInstruments, len(n.hosts))
	for i := range hosts {
		hosts[i] = metrics.Attach[hostInstruments](reg, Component, i)
	}
	ports := make([]*portInstruments, len(n.verts))
	for _, v := range n.verts {
		if v.host {
			ports[v.idx] = &hosts[v.hostID].upPort
		} else {
			ports[v.idx] = &metrics.Attach[switchInstruments](reg, Component, v.idx).port
		}
	}
	trunks := false
	for _, l := range n.links {
		l.port = ports[l.from.idx]
		switch {
		case l.from.host:
			l.wire = &hosts[l.from.hostID].up
		case l.to.host:
			l.wire = &hosts[l.to.hostID].down
		default:
			trunks = true // bindShards points it at its shard's copy
		}
	}
	if trunks && reg != nil {
		metrics.Attach[trunkInstruments](reg, Component, metrics.NodeFabric).fabric = n.m
	}
	n.bindShards()
}

// bindShards points every shard at its copy of the fabric-wide counters,
// and every trunk link at the copy of the shard that drives it. Before the
// first SetMetrics there is nothing to point at.
func (n *Network) bindShards() {
	if n.m == nil {
		return
	}
	for _, sh := range n.sh {
		sh.m = n.m.shard(sh.id)
	}
	for _, l := range n.links {
		if !l.from.host && !l.to.host {
			l.wire = &n.sh[l.from.shard].m.trunk
		}
	}
}
