package lanai

import "repro/internal/metrics"

// Component is the metrics component name for the NIC hardware layer.
const Component = "lanai"

// SetMetrics wires hardware instrumentation into reg, keyed by this NIC's
// node ID. Instruments are cached on the NIC and its buffer pools so the
// per-event hot paths perform no map lookups; with a disabled registry
// every cached instrument is nil and each update is a no-op, while a nil
// registry gets a private always-on one backing the deprecated Stats
// accessor. Call before attaching firmware so no events go uncounted.
func (n *NIC) SetMetrics(reg *metrics.Registry) {
	reg = metrics.Ensure(reg)
	n.reg = reg
	id := int(n.ID)
	n.mCPUBusyNs = reg.Counter(Component, id, "cpu_busy_ns")
	n.mCPUBacklogNs = reg.Gauge(Component, id, "cpu_backlog_ns")
	n.mSDMABusyNs = reg.Counter(Component, id, "sdma_busy_ns")
	n.mRDMABusyNs = reg.Counter(Component, id, "rdma_busy_ns")
	n.mHostEvents = reg.Counter(Component, id, "host_events")
	n.mRxNoBuffer = reg.Counter(Component, id, "rx_nobuffer")
	n.mRxPausedDrops = reg.Counter(Component, id, "rx_paused_drops")
	n.SendBufs.setMetrics(reg, id, "sendbuf")
	n.RecvBufs.setMetrics(reg, id, "recvbuf")
}

// Registry reports the registry wired by SetMetrics (nil if none); the GM
// firmware and the multicast extension pull it from here so the whole NIC
// stack shares one registry.
func (n *NIC) Registry() *metrics.Registry { return n.reg }

// setMetrics attaches occupancy and exhaustion-stall instruments to the
// pool under the given name prefix ("sendbuf"/"recvbuf").
func (p *BufPool) setMetrics(reg *metrics.Registry, node int, prefix string) {
	p.mInUse = reg.Gauge(Component, node, prefix+"_inuse")
	p.mStalls = reg.Counter(Component, node, prefix+"_stalls")
	p.mStallNs = reg.Counter(Component, node, prefix+"_stall_ns")
}
