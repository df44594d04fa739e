package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// CounterVal is one counter's value in a snapshot.
type CounterVal struct {
	Key
	Value uint64 `json:"value"`
}

// GaugeVal is one gauge's level and high-water mark in a snapshot.
type GaugeVal struct {
	Key
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// HistVal is one histogram's accumulated shape in a snapshot. Buckets
// holds only the non-empty log2 buckets, index → count.
type HistVal struct {
	Key
	Count   uint64         `json:"count"`
	Sum     int64          `json:"sum"`
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// Mean reports the snapshot histogram's mean observation.
func (h HistVal) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, ordered by (component,
// node, name). Snapshots are plain data: diff them, render them, or
// marshal them to JSON.
type Snapshot struct {
	Counters   []CounterVal `json:"counters"`
	Gauges     []GaugeVal   `json:"gauges"`
	Histograms []HistVal    `json:"histograms"`
}

// Snapshot copies the registry's current instrument values. A nil registry
// yields an empty snapshot. Snapshot between runs, not while shard
// goroutines are mid-window: the instruments are plain integers their
// shards write without a lock.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		e := r.at(i)
		v := Visitor{component: e.component, node: e.node, snap: &s}
		e.block.Each(&v)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Key.less(s.Counters[j].Key) })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Key.less(s.Gauges[j].Key) })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Key.less(s.Histograms[j].Key) })
	return s
}

// val copies the histogram's shape into a snapshot entry under k.
func (h *Histogram) val(k Key) HistVal {
	hv := HistVal{Key: k, Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max()}
	if h.buckets == nil {
		return hv
	}
	lo := BucketOf(h.min)
	for i, n := range h.buckets {
		if n > 0 {
			if hv.Buckets == nil {
				hv.Buckets = make(map[int]uint64)
			}
			hv.Buckets[lo+i] = n
		}
	}
	return hv
}

// Diff returns the change from prev to s: counters and histogram
// counts/sums subtract (instruments absent from prev count from zero);
// gauges keep their current level but report the high-water mark reached
// in s. Instruments that vanished from s are dropped.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	var out Snapshot
	pc := make(map[Key]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Key] = c.Value
	}
	for _, c := range s.Counters {
		out.Counters = append(out.Counters, CounterVal{Key: c.Key, Value: c.Value - pc[c.Key]})
	}
	out.Gauges = append(out.Gauges, s.Gauges...)
	ph := make(map[Key]HistVal, len(prev.Histograms))
	for _, h := range prev.Histograms {
		ph[h.Key] = h
	}
	for _, h := range s.Histograms {
		p := ph[h.Key]
		d := HistVal{Key: h.Key, Count: h.Count - p.Count, Sum: h.Sum - p.Sum, Min: h.Min, Max: h.Max}
		for i, n := range h.Buckets {
			if delta := n - p.Buckets[i]; delta > 0 {
				if d.Buckets == nil {
					d.Buckets = make(map[int]uint64)
				}
				d.Buckets[i] = delta
			}
		}
		out.Histograms = append(out.Histograms, d)
	}
	return out
}

// CounterSum adds up one named counter across all nodes of a component.
func (s Snapshot) CounterSum(component, name string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Component == component && c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// Counter reports one specific counter's value (0 when absent).
func (s Snapshot) Counter(component string, node int, name string) uint64 {
	for _, c := range s.Counters {
		if c.Key == (Key{component, node, name}) {
			return c.Value
		}
	}
	return 0
}

// HistMerged merges one named histogram across all nodes of a component.
func (s Snapshot) HistMerged(component, name string) HistVal {
	out := HistVal{Key: Key{Component: component, Node: NodeFabric, Name: name}}
	first := true
	for _, h := range s.Histograms {
		if h.Component != component || h.Name != name {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		if h.Count > 0 {
			if first || h.Min < out.Min {
				out.Min = h.Min
			}
			if first || h.Max > out.Max {
				out.Max = h.Max
			}
			first = false
		}
		for i, n := range h.Buckets {
			if out.Buckets == nil {
				out.Buckets = make(map[int]uint64)
			}
			out.Buckets[i] += n
		}
	}
	return out
}

// Components lists the distinct components present in the snapshot, in
// sorted order.
func (s Snapshot) Components() []string {
	seen := map[string]bool{}
	for _, c := range s.Counters {
		seen[c.Component] = true
	}
	for _, g := range s.Gauges {
		seen[g.Component] = true
	}
	for _, h := range s.Histograms {
		seen[h.Component] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// formatValue renders an instrument value, treating *_ns names as virtual
// durations.
func formatValue(name string, v float64) string {
	if strings.HasSuffix(name, "_ns") {
		switch {
		case v >= 1e6:
			return fmt.Sprintf("%.3fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.2fµs", v/1e3)
		default:
			return fmt.Sprintf("%.0fns", v)
		}
	}
	return fmt.Sprintf("%.0f", v)
}

// WriteTable renders the snapshot as a human-readable table, one section
// per component, counters/gauges/histograms aggregated across nodes (the
// per-node detail is in the JSON dump).
func (s Snapshot) WriteTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	for _, comp := range s.Components() {
		fmt.Fprintf(tw, "[%s]\t\t\n", comp)
		type agg struct {
			val   float64
			nodes int
		}
		sums := map[string]*agg{}
		var names []string
		for _, c := range s.Counters {
			if c.Component != comp {
				continue
			}
			a := sums[c.Name]
			if a == nil {
				a = &agg{}
				sums[c.Name] = a
				names = append(names, c.Name)
			}
			a.val += float64(c.Value)
			a.nodes++
		}
		sort.Strings(names)
		for _, n := range names {
			a := sums[n]
			fmt.Fprintf(tw, "  %s\t%s\t(%d nodes)\n", n, formatValue(n, a.val), a.nodes)
		}
		gaugeHigh := map[string]int64{}
		var gnames []string
		for _, g := range s.Gauges {
			if g.Component != comp {
				continue
			}
			high, ok := gaugeHigh[g.Name]
			if !ok {
				gnames = append(gnames, g.Name)
			}
			if !ok || g.High > high {
				gaugeHigh[g.Name] = g.High
			}
		}
		sort.Strings(gnames)
		for _, n := range gnames {
			fmt.Fprintf(tw, "  %s\thigh-water %s\t\n", n, formatValue(n, float64(gaugeHigh[n])))
		}
		hseen := map[string]bool{}
		var hnames []string
		for _, h := range s.Histograms {
			if h.Component != comp || hseen[h.Name] {
				continue
			}
			hseen[h.Name] = true
			hnames = append(hnames, h.Name)
		}
		sort.Strings(hnames)
		for _, n := range hnames {
			m := s.HistMerged(comp, n)
			if m.Count == 0 {
				continue
			}
			fmt.Fprintf(tw, "  %s\tn=%d mean=%s max=%s\t\n",
				n, m.Count, formatValue(n, m.Mean()), formatValue(n, float64(m.Max)))
		}
	}
}

// WriteJSON dumps the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
