package core

import "repro/internal/metrics"

// Component is the metrics component name for the multicast extension.
const Component = "core"

// instruments is one NIC's multicast block: the counters and distributions
// themselves, by value, so the forwarding hot path updates a field and does
// no lookup. Install takes the block filed under its node in the hardware
// NIC's registry, or makes a private one when none is wired.
type instruments struct {
	mcastSent        metrics.Counter
	mcastReceived    metrics.Counter
	mcastForwarded   metrics.Counter
	acksSent         metrics.Counter
	acksRecv         metrics.Counter
	acksSuppressed   metrics.Counter
	acksAggregated   metrics.Counter
	retransmits      metrics.Counter
	timeouts         metrics.Counter
	duplicates       metrics.Counter
	oooDrops         metrics.Counter
	noTokenDrops     metrics.Counter
	notMemberDrops   metrics.Counter
	nacksSent        metrics.Counter
	nacksRecv        metrics.Counter
	staleEpochDrops  metrics.Counter
	futureEpochDrops metrics.Counter
	staleEpochAcks   metrics.Counter
	ackedAsDropped   metrics.Counter
	epochCommits     metrics.Counter
	quiesceReqs      metrics.Counter

	// headerRewrites counts transmit-callback header rewrites (the
	// multisend mechanism's defining per-replica cost); fwdBeforeFull
	// counts packets forwarded to children before their message had fully
	// arrived (per-packet pipelining at work); fanout observes the child
	// count of each replicated packet; ackLatencyNs observes, per retired
	// send record, the delay from (re)transmission to the ack that
	// cleared its last pending child.
	headerRewrites metrics.Counter
	fwdBeforeFull  metrics.Counter
	fanout         metrics.Histogram
	ackLatencyNs   metrics.Histogram
}

func (m *instruments) Each(v *metrics.Visitor) {
	v.Counter("mcast_sent", &m.mcastSent)
	v.Counter("mcast_received", &m.mcastReceived)
	v.Counter("mcast_forwarded", &m.mcastForwarded)
	v.Counter("mcast_acks_sent", &m.acksSent)
	v.Counter("mcast_acks_received", &m.acksRecv)
	v.Counter("mcast_acks_suppressed", &m.acksSuppressed)
	v.Counter("mcast_acks_aggregated", &m.acksAggregated)
	v.Counter("retransmits", &m.retransmits)
	v.Counter("timeouts", &m.timeouts)
	v.Counter("duplicates", &m.duplicates)
	v.Counter("out_of_order_drops", &m.oooDrops)
	v.Counter("no_token_drops", &m.noTokenDrops)
	v.Counter("not_member_drops", &m.notMemberDrops)
	v.Counter("mcast_nacks_sent", &m.nacksSent)
	v.Counter("mcast_nacks_received", &m.nacksRecv)
	v.Counter("stale_epoch_drops", &m.staleEpochDrops)
	v.Counter("future_epoch_drops", &m.futureEpochDrops)
	v.Counter("stale_epoch_acks", &m.staleEpochAcks)
	v.Counter("acked_as_dropped", &m.ackedAsDropped)
	v.Counter("epoch_commits", &m.epochCommits)
	v.Counter("quiesce_requests", &m.quiesceReqs)
	v.Counter("header_rewrites", &m.headerRewrites)
	v.Counter("forwards_before_full", &m.fwdBeforeFull)
	v.Histogram("fanout", &m.fanout)
	v.Histogram("ack_latency_ns", &m.ackLatencyNs)
}
