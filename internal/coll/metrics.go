package coll

import "repro/internal/metrics"

// Component is the metrics component name for the collective engine.
const Component = "coll"

// instruments is one NIC's collective block: the counters and the combine
// distribution themselves, by value, so the firmware hot path updates a
// field and does no lookup. Install takes the block filed under its node in
// the hardware NIC's registry, or makes a private one when none is wired.
type instruments struct {
	barrierSent    metrics.Counter // barrier round/up/down messages transmitted
	barrierRounds  metrics.Counter // dissemination rounds entered
	barriersDone   metrics.Counter // barrier instances completed at this NIC
	reduceSent     metrics.Counter // combined vectors sent up the tree
	reduceCombines metrics.Counter // per-contribution combining steps
	reducesDone    metrics.Counter // reduction instances completed (root)
	gatherSent     metrics.Counter // allgather batch chunks sent up the tree
	gathersDone    metrics.Counter // allgather instances completed at this NIC
	ringSent       metrics.Counter // ring-allgather hops transmitted
	retransmits    metrics.Counter // go-back-N retransmissions
	timeouts       metrics.Counter // go-back rounds a retransmission timer forced
	acksSuppressed metrics.Counter // per-chunk gather acks avoided by coalescing
	duplicates     metrics.Counter // duplicate or out-of-sequence collective frames dropped
	notMemberDrops metrics.Counter // frames for groups this NIC has no entry for
	bytesForwarded metrics.Counter // payload bytes moved up the tree / around the ring
	combineNs      metrics.Histogram
}

func (m *instruments) Each(v *metrics.Visitor) {
	v.Counter("barrier_sent", &m.barrierSent)
	v.Counter("barrier_rounds", &m.barrierRounds)
	v.Counter("barriers_done", &m.barriersDone)
	v.Counter("reduce_sent", &m.reduceSent)
	v.Counter("reduce_combines", &m.reduceCombines)
	v.Counter("reduces_done", &m.reducesDone)
	v.Counter("gather_sent", &m.gatherSent)
	v.Counter("gathers_done", &m.gathersDone)
	v.Counter("ring_sent", &m.ringSent)
	v.Counter("retransmits", &m.retransmits)
	v.Counter("timeouts", &m.timeouts)
	v.Counter("acks_suppressed", &m.acksSuppressed)
	v.Counter("duplicates", &m.duplicates)
	v.Counter("not_member_drops", &m.notMemberDrops)
	v.Counter("bytes_forwarded", &m.bytesForwarded)
	v.Histogram("combine_ns", &m.combineNs)
}
