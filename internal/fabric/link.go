package fabric

import "repro/internal/sim"

// LinkParams are the physical characteristics of every link in a fabric.
// Myrinet-2000 defaults: 2 Gb/s (4 ns per byte) and a few hundred
// nanoseconds of combined cable and crossbar routing delay per hop.
type LinkParams struct {
	// Latency is the per-hop head latency: propagation plus the switch's
	// wormhole routing decision.
	Latency sim.Time
	// NsPerByte is the serialization cost; 4.0 models 2 Gb/s Myrinet-2000.
	NsPerByte float64

	// PauseBytes and ResumeBytes enable PFC-style link-level backpressure
	// when PauseBytes > 0: a sender whose link already has PauseBytes of
	// traffic reserved-but-undrained parks instead of queueing deeper, and
	// parked senders wake (in FIFO order) once the backlog drains to
	// ResumeBytes. The hysteresis models a lossless fabric's PAUSE/resume
	// thresholds: buffers stay bounded and loss comes only from injected
	// faults, never congestion. Zero (the Myrinet default) disables the
	// mechanism entirely — the hot path takes no extra branches or
	// allocations.
	PauseBytes  int
	ResumeBytes int
}

// DefaultLinkParams returns Myrinet-2000-like link characteristics.
func DefaultLinkParams() LinkParams {
	return LinkParams{Latency: 300 * sim.Nanosecond, NsPerByte: 4.0}
}

// SerializationTime reports how long a packet of the given size occupies
// a link.
func (lp LinkParams) SerializationTime(size int) sim.Time {
	return sim.PerByte(lp.NsPerByte, size)
}

// Vertex is a point in the fabric graph: either a host attachment or a
// switch. Every vertex is an event domain (sim tiebreak-key namespace,
// domain = idx+1) and belongs to exactly one shard — the engine that fires
// every event happening "at" the vertex. Topology builders obtain vertices
// from AddSwitch/AddHost; the fields stay private to the fabric.
type Vertex struct {
	idx    int
	host   bool
	hostID NodeID
	label  string
	out    []*Link
	domain uint32
	shard  int
}

// Link is a directed physical channel between two vertices. Each link is a
// FIFO resource: one packet serializes onto it at a time. The two directions
// of a cable share one allocation (ConnectWith).
type Link struct {
	from, to *Vertex
	fac      sim.Facility
	params   LinkParams
	// Drops counts packets lost on this link (fault injection).
	Drops uint64

	// PFC backpressure state, live only when params.PauseBytes > 0. All of
	// it is touched exclusively by events on the from-vertex's shard, so
	// sharded runs need no locks. queued counts bytes reserved on the link
	// whose drain event has not yet fired; inflight is the FIFO of those
	// reservation sizes (head index qHead avoids shifting); waiters are the
	// parked transits in arrival order; drainFn is the pre-bound drain
	// callback so steady-state flow control allocates nothing per packet.
	queued   int
	inflight []int
	qHead    int
	waiters  []*transit
	drainFn  func()

	// The link's groups of its owners' blocks, set by Network.SetMetrics:
	// wire is this link's class at its host (or the trunks' one), port the
	// from-vertex's output contention.
	wire *wireInstruments
	port *portInstruments
}

// String labels the link for diagnostics.
func (l *Link) String() string { return l.from.label + "->" + l.to.label }

// FromLabel and ToLabel name the link's endpoints ("host3", "xbar0", ...),
// letting fault injection target a specific link or switch by name.
func (l *Link) FromLabel() string { return l.from.label }
func (l *Link) ToLabel() string   { return l.to.label }

// Touches reports whether the link attaches directly to the given host
// (either direction).
func (l *Link) Touches(id NodeID) bool {
	return (l.from.host && l.from.hostID == id) || (l.to.host && l.to.hostID == id)
}

// BusyTime reports cumulative serialization time spent on the link.
func (l *Link) BusyTime() sim.Time { return l.fac.BusyTime() }
