// Package trace records protocol-level events with virtual timestamps so
// a run can be rendered as a packet timeline — the tool one actually
// debugs a NIC firmware with. Recording is off unless a Recorder is
// attached to the NICs, and costs nothing in virtual time.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Category classifies events.
type Category string

const (
	TX      Category = "tx"      // packet handed to the transmit engine
	RX      Category = "rx"      // packet accepted from the wire
	Drop    Category = "drop"    // packet refused (sequence, token, buffer)
	Fwd     Category = "fwd"     // NIC-based forward of a multicast packet
	Ack     Category = "ack"     // acknowledgment sent or processed
	Retrans Category = "retrans" // timeout or nack retransmission
	Host    Category = "host"    // host-visible event (delivery, post)
)

// Event is one timestamped record.
type Event struct {
	At   sim.Time
	Node fabric.NodeID
	Cat  Category
	Msg  string
}

func (e Event) String() string {
	return fmt.Sprintf("%12s  n%-3d %-8s %s", e.At, int(e.Node), e.Cat, e.Msg)
}

// Recorder accumulates events. A nil recorder records nothing.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Log records one event. Safe to call on a nil recorder.
func (r *Recorder) Log(at sim.Time, node fabric.NodeID, cat Category, format string, args ...any) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{At: at, Node: node, Cat: cat, Msg: fmt.Sprintf(format, args...)})
}

// Len reports the recorded event count.
func (r *Recorder) Len() int { return len(r.events) }

// WriteTimeline renders all events in time order, one per line.
func (r *Recorder) WriteTimeline(w io.Writer) {
	for _, e := range r.events {
		fmt.Fprintln(w, e)
	}
}

// WriteLanes renders a per-node lane view: nodes as columns sorted by ID,
// events as rows in time order, with each event marked in its node's lane
// — a text Gantt of the multicast.
func (r *Recorder) WriteLanes(w io.Writer) {
	nodes := make([]fabric.NodeID, 0)
	seen := map[fabric.NodeID]bool{}
	for _, e := range r.events {
		if !seen[e.Node] {
			seen[e.Node] = true
			nodes = append(nodes, e.Node)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	lane := make(map[fabric.NodeID]int, len(nodes))
	var header strings.Builder
	header.WriteString(fmt.Sprintf("%12s  ", "time"))
	for i, n := range nodes {
		lane[n] = i
		header.WriteString(fmt.Sprintf("%-6s", fmt.Sprintf("n%d", int(n))))
	}
	fmt.Fprintln(w, header.String())
	for _, e := range r.events {
		var row strings.Builder
		row.WriteString(fmt.Sprintf("%12s  ", e.At))
		for range nodes[:lane[e.Node]] {
			row.WriteString("      ")
		}
		mark := string(e.Cat)
		if len(mark) > 5 {
			mark = mark[:5]
		}
		row.WriteString(fmt.Sprintf("%-6s", mark))
		fmt.Fprintf(w, "%s %s\n", row.String(), e.Msg)
	}
}
