package gm

import "repro/internal/metrics"

// Component is the metrics component name for the GM protocol layer.
const Component = "gm"

// instruments is one NIC's protocol block: the instruments themselves, by
// value, so hot paths update a field and do no lookup. NewNIC takes the
// block filed under its node in the hardware NIC's registry, or makes a
// private one when none is wired.
type instruments struct {
	dataSent        metrics.Counter
	dataReceived    metrics.Counter
	acksSent        metrics.Counter
	acksReceived    metrics.Counter
	acksSuppressed  metrics.Counter
	acksPiggybacked metrics.Counter
	retransmits     metrics.Counter
	timeouts        metrics.Counter
	duplicates      metrics.Counter
	oooDrops        metrics.Counter
	noTokenDrops    metrics.Counter
	nacksSent       metrics.Counter
	nacksReceived   metrics.Counter
	tokenWaitNs     metrics.Histogram
}

func (m *instruments) Each(v *metrics.Visitor) {
	v.Counter("data_sent", &m.dataSent)
	v.Counter("data_received", &m.dataReceived)
	v.Counter("acks_sent", &m.acksSent)
	v.Counter("acks_received", &m.acksReceived)
	v.Counter("acks_suppressed", &m.acksSuppressed)
	v.Counter("acks_piggybacked", &m.acksPiggybacked)
	v.Counter("retransmits", &m.retransmits)
	v.Counter("timeouts", &m.timeouts)
	v.Counter("duplicates", &m.duplicates)
	v.Counter("out_of_order_drops", &m.oooDrops)
	v.Counter("no_token_drops", &m.noTokenDrops)
	v.Counter("nacks_sent", &m.nacksSent)
	v.Counter("nacks_received", &m.nacksReceived)
	v.Histogram("token_wait_ns", &m.tokenWaitNs)
}
