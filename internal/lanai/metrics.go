package lanai

import "repro/internal/metrics"

// Component is the metrics component name for the NIC hardware layer.
const Component = "lanai"

// instruments is one NIC's hardware block: the instruments themselves, by
// value. New makes a private one; SetMetrics swaps in the block filed under
// this node in the registry. The buffer pools cache pointers to the fields
// that are theirs.
type instruments struct {
	cpuBusyNs     metrics.Counter
	cpuBacklogNs  metrics.Gauge
	sdmaBusyNs    metrics.Counter
	rdmaBusyNs    metrics.Counter
	hostEvents    metrics.Counter
	rxNoBuffer    metrics.Counter
	rxPausedDrops metrics.Counter
	sendBufs      poolInstruments
	recvBufs      poolInstruments
}

// poolInstruments are one buffer pool's occupancy and exhaustion stalls.
type poolInstruments struct {
	inUse   metrics.Gauge
	stalls  metrics.Counter
	stallNs metrics.Counter
}

func (m *instruments) Each(v *metrics.Visitor) {
	v.Counter("cpu_busy_ns", &m.cpuBusyNs)
	v.Gauge("cpu_backlog_ns", &m.cpuBacklogNs)
	v.Counter("sdma_busy_ns", &m.sdmaBusyNs)
	v.Counter("rdma_busy_ns", &m.rdmaBusyNs)
	v.Counter("host_events", &m.hostEvents)
	v.Counter("rx_nobuffer", &m.rxNoBuffer)
	v.Counter("rx_paused_drops", &m.rxPausedDrops)
	v.Gauge("sendbuf_inuse", &m.sendBufs.inUse)
	v.Counter("sendbuf_stalls", &m.sendBufs.stalls)
	v.Counter("sendbuf_stall_ns", &m.sendBufs.stallNs)
	v.Gauge("recvbuf_inuse", &m.recvBufs.inUse)
	v.Counter("recvbuf_stalls", &m.recvBufs.stalls)
	v.Counter("recvbuf_stall_ns", &m.recvBufs.stallNs)
}

// SetMetrics makes the NIC count into reg, under this NIC's node ID: its
// block is the one filed there (a new one unless another cluster sharing
// reg has filed it already), and the hot paths update its fields directly.
// A nil reg leaves the NIC counting into a block of its own. Call before
// attaching firmware so no events go uncounted, and so the firmware finds
// the registry.
func (n *NIC) SetMetrics(reg *metrics.Registry) {
	n.reg = reg
	n.m = metrics.Attach[instruments](reg, Component, int(n.ID))
	n.SendBufs.m = &n.m.sendBufs
	n.RecvBufs.m = &n.m.recvBufs
}

// Registry reports the registry wired by SetMetrics — nil for a NIC built
// outside a cluster, never for a cluster's (which wires its own when given
// none). The GM firmware, the multicast extension and the collective engine
// attach their blocks to it, so the whole NIC stack shares one registry and
// any of its counters can be read from it by name.
func (n *NIC) Registry() *metrics.Registry { return n.reg }
