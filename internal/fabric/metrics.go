package fabric

import "repro/internal/metrics"

// Component is the metrics component name for the fabric layer. Every
// backend shares it: the invariant checkers (chaos campaigns, membership
// scenarios) read injected/delivered/dropped/duplicated under this
// component regardless of which fabric carried the traffic.
const Component = "net"

// The fabric counts into four kinds of block, the instruments by value in
// each. A link caches pointers to the two groups that are its own: the wire
// it drives and the output port it queues behind.

// instruments is the fabric-wide block, filed under NodeFabric. Shards
// update it concurrently.
type instruments struct {
	injected   metrics.Counter
	delivered  metrics.Counter
	dropped    metrics.Counter
	duplicated metrics.Counter
	linkBusyNs metrics.Counter
}

func (m *instruments) Each(v *metrics.Visitor) {
	v.Counter("injected", &m.injected)
	v.Counter("delivered", &m.delivered)
	v.Counter("dropped", &m.dropped)
	v.Counter("duplicated", &m.duplicated)
	v.Counter("link_busy_ns", &m.linkBusyNs)
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
// filed under NodeFabric by fabrics that have any.
type trunkInstruments struct{ wire wireInstruments }

func (m *trunkInstruments) Each(v *metrics.Visitor) {
	v.Counter("trunk_tx_bytes", &m.wire.txBytes)
	v.Counter("trunk_drops", &m.wire.drops)
}

// SetMetrics makes the fabric count into reg: one block for the fabric, one
// per host, one per switch, each the one filed under its key (a new one
// unless another fabric sharing reg filed it first); every link is pointed
// at its groups, so the per-packet path does no lookup. A nil reg gives the
// fabric blocks of its own — every topology builder ends with
// SetMetrics(nil), since a link counts from its first packet. Bytes and
// drops are attributed to the host endpoint of host-attached links (trunk
// links fall to the fabric pseudo node); serialization stalls are
// attributed to the vertex whose output port was busy — the injecting host,
// or the contended switch. PFC pause counts and pause time follow the stall
// attribution.
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
	var trunk *trunkInstruments
	for _, l := range n.links {
		l.port = ports[l.from.idx]
		switch {
		case l.from.host:
			l.wire = &hosts[l.from.hostID].up
		case l.to.host:
			l.wire = &hosts[l.to.hostID].down
		default:
			if trunk == nil {
				trunk = metrics.Attach[trunkInstruments](reg, Component, metrics.NodeFabric)
			}
			l.wire = &trunk.wire
		}
	}
}
