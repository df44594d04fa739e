package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/lanai"
	"repro/internal/metrics"
)

// Reporter turns a shared metrics registry into per-experiment reports.
// Mark pins a baseline; Report prints everything accumulated since the
// last mark (counters and histograms subtract, gauges carry their latest
// values) and advances it. A nil Reporter is inert, so callers thread it
// unconditionally and construct it only when metrics were requested.
type Reporter struct {
	// JSON switches Report from the human table to machine-readable JSON.
	JSON bool

	reg  *metrics.Registry
	prev metrics.Snapshot
}

// NewReporter returns a reporter over reg, or nil when reg is nil (every
// method on a nil Reporter is a no-op).
func NewReporter(reg *metrics.Registry) *Reporter {
	if reg == nil {
		return nil
	}
	return &Reporter{reg: reg, prev: reg.Snapshot()}
}

// Enabled reports whether the reporter will produce output.
func (r *Reporter) Enabled() bool { return r != nil }

// Mark advances the baseline without reporting, discarding anything
// accumulated since the previous mark (e.g. warm-up traffic).
func (r *Reporter) Mark() {
	if r == nil {
		return
	}
	r.prev = r.reg.Snapshot()
}

// Delta returns the metrics accumulated since the last mark without
// advancing it.
func (r *Reporter) Delta() metrics.Snapshot {
	if r == nil {
		return metrics.Snapshot{}
	}
	return r.reg.Snapshot().Diff(r.prev)
}

// Report writes the delta since the last mark under title and advances
// the mark, so consecutive calls partition the run into experiments.
func (r *Reporter) Report(w io.Writer, title string) {
	if r == nil {
		return
	}
	d := r.Delta()
	if r.JSON {
		fmt.Fprintf(w, "{\"experiment\": %q, \"metrics\": ", title)
		d.WriteJSON(w)
		fmt.Fprintln(w, "}")
	} else {
		fmt.Fprintf(w, "\n-- metrics: %s --\n", title)
		d.WriteTable(w)
		WriteBreakdown(w, d)
	}
	r.prev = r.reg.Snapshot()
}

// WriteBreakdown accounts one experiment's work layer by layer — wire
// occupancy, NIC processor and DMA engine busy time, protocol traffic, and
// NIC-resident forwarding — the decomposition behind the paper's host- vs
// NIC-based comparison.
func WriteBreakdown(w io.Writer, d metrics.Snapshot) {
	ns := func(v uint64) string {
		switch f := float64(v); {
		case f >= 1e6:
			return fmt.Sprintf("%.3fms", f/1e6)
		case f >= 1e3:
			return fmt.Sprintf("%.2fµs", f/1e3)
		default:
			return fmt.Sprintf("%.0fns", f)
		}
	}
	fmt.Fprintln(w, "per-layer breakdown:")
	fmt.Fprintf(w, "  link:       %s busy, %d pkts delivered, %s stalled (up %s / switch %s), %d dropped\n",
		ns(d.CounterSum(fabric.Component, "link_busy_ns")),
		d.CounterSum(fabric.Component, "delivered"),
		ns(d.CounterSum(fabric.Component, "uplink_stall_ns")+d.CounterSum(fabric.Component, "switch_stall_ns")),
		ns(d.CounterSum(fabric.Component, "uplink_stall_ns")),
		ns(d.CounterSum(fabric.Component, "switch_stall_ns")),
		d.CounterSum(fabric.Component, "dropped"))
	fmt.Fprintf(w, "  NIC CPU:    %s busy\n", ns(d.CounterSum(lanai.Component, "cpu_busy_ns")))
	fmt.Fprintf(w, "  DMA:        %s send-side, %s recv-side, %d recv-buffer stalls\n",
		ns(d.CounterSum(lanai.Component, "sdma_busy_ns")),
		ns(d.CounterSum(lanai.Component, "rdma_busy_ns")),
		d.CounterSum(lanai.Component, "recvbuf_stalls"))
	tokenWait := d.HistMerged(gm.Component, "token_wait_ns")
	fmt.Fprintf(w, "  protocol:   %d data sent, %d acks, %d retransmits, %d timeouts, token wait mean %s\n",
		d.CounterSum(gm.Component, "data_sent"),
		d.CounterSum(gm.Component, "acks_sent"),
		d.CounterSum(gm.Component, "retransmits"),
		d.CounterSum(gm.Component, "timeouts"),
		ns(uint64(tokenWait.Mean())))
	fanout := d.HistMerged(core.Component, "fanout")
	ackLat := d.HistMerged(core.Component, "ack_latency_ns")
	fmt.Fprintf(w, "  forwarding: %d forwards (%d before full arrival), %d header rewrites, mean fanout %.1f, ack latency mean %s\n",
		d.CounterSum(core.Component, "mcast_forwarded"),
		d.CounterSum(core.Component, "forwards_before_full"),
		d.CounterSum(core.Component, "header_rewrites"),
		fanout.Mean(),
		ns(uint64(ackLat.Mean())))
}
