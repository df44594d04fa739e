package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/benchkernel"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/tree"
)

// span is one interval of the traced run. Host spans nest
// workload → rep → {cluster.build, tree.build, core.install, run, verify,
// teardown} and are in nanoseconds since the workload started; model spans
// are one per operation, post → last receive, in simulated nanoseconds,
// children of the repetition's run span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the workload span
	Name   string `json:"name"`
	Clock  string `json:"clock"` // "host" or "model"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the code path at no cost.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a host-clock span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Clock: "host",
		Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned (and anything left open inside it).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	for n := len(t.stack); n > 0 && t.stack[n-1] >= id; n-- {
		t.stack = t.stack[:n-1]
	}
}

// model records one finished model-clock span under parent.
func (t *tracer) model(parent int, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Clock: "model",
		Start: int64(start), End: int64(end)})
}

// selfTimes reports, per host span name, total duration and self time
// (duration minus the part covered by child spans), in seconds.
func (t *tracer) selfTimes() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Clock == "host" && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.Clock != "host" {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-child[s.ID]) / 1e9
	}
	return total, self
}

// write stores the spans as one JSON document.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// keyDomainShift extracts the scheduling domain from an event's tiebreak
// key: the engine packs the domain into the key's top bits.
var keyDomainShift = 64 - bits.Len(uint(sim.MaxDomains))

// stepAcct drives a serial engine one event at a time and charges each
// event's wall time to the node layers (events scheduled by a host vertex:
// LANai hardware, GM and multicast firmware, host processes) or to the
// fabric (events scheduled by a switch). The domain is the one in the
// event's key — the entity that scheduled it — so a packet's first hop
// counts as node work and its final delivery to the NIC as fabric work.
type stepAcct struct {
	isHost  []bool // by domain; domain 0 (ambient set-up) counts as node
	cur     uint64
	events  [2]uint64 // [0] node, [1] fabric
	wallNs  [2]int64
	pending []int32 // heap depth sampled every 64 events
	pendMax int
}

func newStepAcct(net *fabric.Network) *stepAcct {
	a := &stepAcct{isHost: []bool{true}}
	for i := 0; i < net.Hosts(); i++ {
		d := int(net.HostDomain(fabric.NodeID(i)))
		for len(a.isHost) <= d {
			a.isHost = append(a.isHost, false)
		}
		a.isHost[d] = true
	}
	return a
}

func (a *stepAcct) class(domain uint64) int {
	if domain < uint64(len(a.isHost)) && a.isHost[domain] {
		return 0
	}
	return 1
}

// run fires events until the engine is quiet, like Engine.Run.
func (a *stepAcct) run(eng *sim.Engine) {
	eng.SetFireHook(func(_ sim.Time, key uint64) { a.cur = key >> keyDomainShift })
	last := time.Now()
	for n := 0; eng.Step(); n++ {
		now := time.Now()
		k := a.class(a.cur)
		a.wallNs[k] += now.Sub(last).Nanoseconds()
		a.events[k]++
		last = now
		if n&63 == 0 {
			p := eng.Pending()
			a.pending = append(a.pending, int32(p))
			if p > a.pendMax {
				a.pendMax = p
			}
		}
	}
	eng.SetFireHook(nil)
}

func (a *stepAcct) pendingP50() float64 {
	if len(a.pending) == 0 {
		return 0
	}
	s := append([]int32(nil), a.pending...)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// Isolated kernels: each layer's inner loop timed with nothing else running,
// so a traced count times a kernel cost gives that layer's share.

// noopStream loads an engine with depth outstanding no-op events, each of
// which schedules its successor until n have fired, and times draining it
// with drive: the event kernel's schedule+fire cost with nothing attached.
func noopStream(depth, n int, drive func(*sim.Engine)) (nsPerEvent float64) {
	eng := sim.NewEngine()
	left := n - depth
	var fn func()
	fn = func() {
		if left > 0 {
			left--
			eng.After(sim.Time(depth), fn)
		}
	}
	for i := 0; i < depth; i++ {
		eng.After(sim.Time(i+1), fn)
	}
	t0 := time.Now()
	drive(eng)
	return float64(time.Since(t0).Nanoseconds()) / float64(eng.EventsFired())
}

// kernelNsPerEvent times schedule+fire of n no-op events with depth events
// outstanding (the workload's median heap depth).
func kernelNsPerEvent(depth, n int) float64 {
	return noopStream(max(1, depth), n, (*sim.Engine).Run)
}

// hookNsPerEvent times what the accounting Step loop adds to each event:
// a no-op stream drained by it minus the same stream run plainly.
func hookNsPerEvent(n int) float64 {
	const depth = 64
	return noopStream(depth, n, (&stepAcct{isHost: []bool{true}}).run) - noopStream(depth, n, (*sim.Engine).Run)
}

// fabricNsPerHop is the legacy gate's crossbar packet storm with no NICs
// attached (benchkernel.PacketStorm: one operation is a wave of eight
// packets, two link traversals each), timed once per process.
var fabricNsPerHop = sync.OnceValue(func() float64 {
	const hopsPerOp = 8 * 2
	r := testing.Benchmark(benchkernel.PacketStorm)
	return float64(r.T.Nanoseconds()) / float64(r.N) / hopsPerOp
})

// validateUsPerNode times tree.Validate on the workload's own tree.
func validateUsPerNode(t *tree.Tree) float64 {
	const reps = 5
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := t.Validate(); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(reps*t.Size())
}
