// Package golden is the one comparator behind every pinned result in the
// tests: timelines, clocks, metrics snapshots and campaign tables.
//
// A golden is a text file, testdata/golden/<Test>.txt, with one section per
// case: a line "== <case> <header>" and the body under it. The header holds
// the pinned values: the SHA-256 of the run's trace where it has one, the
// final clock and the events fired. The body holds the fired events
// themselves ("<when> <domain>:<seq>") when there are at most maxRecords,
// otherwise at most maxChunks digests of runs of them ("chunk
// <first>+<count> <digest>"), or a snapshot's or a table's lines verbatim.
//
// On a mismatch the report names where the runs part: the first divergent
// event with its time, key and domain, the events before it on that domain
// and the trace lines logged at that instant; or the first divergent chunk
// and this run's events in it; or the first differing line.
//
// GOLDEN_UPDATE=1 go test ./... re-captures every golden.
package golden

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

const (
	// maxRecords is the longest stream a golden stores event by event.
	maxRecords = 1024
	// maxChunks bounds the digests a golden stores for a longer stream,
	// each over at least minChunk events.
	maxChunks = 64
	minChunk  = 256
	// preceding is how many earlier events on the divergent event's domain a
	// report shows; maxShown caps the events it lists from a chunk.
	preceding = 8
	maxShown  = 512
)

// Event is one fired event: its instant and its tiebreak key, whose top 16
// bits are the domain that scheduled it.
type Event struct {
	When sim.Time
	Key  uint64
}

func (e Event) domain() uint64 { return e.Key >> 48 }

func (e Event) String() string {
	return fmt.Sprintf("t=%d key=%#x domain=%d", e.When, e.Key, e.domain())
}

// Capture is what one run leaves to compare: the header values, and either
// the fired-event stream or a list of lines. Zero fields are left out.
type Capture struct {
	Clock  sim.Time
	Events uint64
	// Trace is the run's rendered trace timeline, one line per trace event
	// with its instant first.
	Trace  []byte
	Stream []Event
	Lines  []string
}

// Hook records every event the engines fire and returns a function giving
// the stream so far, merged across engines in (when, key) order: the order
// serial and sharded runs of one model agree on.
func Hook(engines []*sim.Engine) func() []Event {
	per := make([][]Event, len(engines))
	for i, e := range engines {
		e.SetFireHook(func(when sim.Time, key uint64) { per[i] = append(per[i], Event{when, key}) })
	}
	return func() []Event {
		all := slices.Concat(per...)
		slices.SortFunc(all, func(a, b Event) int {
			return cmp.Or(cmp.Compare(a.When, b.When), cmp.Compare(a.Key, b.Key))
		})
		return all
	}
}

// header renders the pinned values as "<sha256> t=<clock> ev=<events>".
func (c Capture) header() string {
	var f []string
	if c.Trace != nil {
		f = append(f, fmt.Sprintf("%x", sha256.Sum256(c.Trace)))
	}
	if c.Clock != 0 || c.Events != 0 {
		f = append(f, fmt.Sprintf("t=%d ev=%d", c.Clock, c.Events))
	}
	return strings.Join(f, " ")
}

// body renders the capture's lines, or its stream as records (chunk 0) or
// as digests of chunk events each.
func (c Capture) body(chunk int) []string {
	if c.Lines != nil {
		return c.Lines
	}
	var out []string
	if chunk == 0 {
		for _, e := range c.Stream {
			out = append(out, fmt.Sprintf("%d %d:%d", e.When, e.domain(), e.Key&(1<<48-1)))
		}
		return out
	}
	h := sha256.New()
	var b [16]byte
	for i := 0; i < len(c.Stream); i += chunk {
		evs := c.Stream[i:min(i+chunk, len(c.Stream))]
		h.Reset()
		for _, e := range evs {
			binary.LittleEndian.PutUint64(b[:8], uint64(e.When))
			binary.LittleEndian.PutUint64(b[8:], e.Key)
			h.Write(b[:])
		}
		out = append(out, fmt.Sprintf("chunk %d+%d %x", i, len(evs), h.Sum(nil)[:8]))
	}
	return out
}

// newChunk is the body form a new golden stores: records (0) for a short
// stream, otherwise digests of at most maxChunks runs of events.
func (c Capture) newChunk() int {
	if n := len(c.Stream); c.Lines == nil && n > maxRecords {
		return max(minChunk, (n+maxChunks-1)/maxChunks)
	}
	return 0
}

// chunkOf reports the chunk size of a digest body, 0 for any other.
func chunkOf(body []string) int {
	var first, n int
	if len(body) > 0 {
		fmt.Sscanf(body[0], "chunk %d+%d", &first, &n)
	}
	return n
}

// section is one case of a golden file.
type section struct {
	name, header string
	body         []string
}

var fileMu sync.Mutex

func load(path string) ([]section, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	var secs []section
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			name, header, _ := strings.Cut(rest, " ")
			secs = append(secs, section{name: name, header: header})
		} else if len(secs) > 0 {
			secs[len(secs)-1].body = append(secs[len(secs)-1].body, line)
		} else if line != "" {
			return nil, fmt.Errorf("%s: %q before the first case", path, line)
		}
	}
	return secs, err
}

func save(path string, secs []section) error {
	var b strings.Builder
	for _, s := range secs {
		b.WriteString(strings.TrimSuffix("== "+s.name+" "+s.header, " ") + "\n")
		for _, l := range s.body {
			b.WriteString(l + "\n")
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// Updating reports whether GOLDEN_UPDATE asks for re-captures.
func Updating() bool { return os.Getenv("GOLDEN_UPDATE") != "" }

// Check compares a capture with case name of testdata/golden/<file>.txt,
// or, under GOLDEN_UPDATE, writes it there.
func Check(t testing.TB, file, name string, c Capture) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file+".txt")
	fileMu.Lock()
	defer fileMu.Unlock()
	secs, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(secs, func(s section) bool { return s.name == name })
	switch {
	case Updating():
		s := section{name, c.header(), c.body(c.newChunk())}
		if i < 0 {
			secs = append(secs, s)
		} else {
			secs[i] = s
		}
		if err := save(path, secs); err != nil {
			t.Fatal(err)
		}
	case i < 0:
		t.Fatalf("%s has no case %q; capture it with GOLDEN_UPDATE=1", path, name)
	default:
		if r := report(c, secs[i].header, secs[i].body, "golden"); r != "" {
			t.Errorf("%s, case %s, differs from the capture:\n%s", path, name, r)
		}
	}
}

// Equal compares two live captures, such as one model's serial and sharded
// runs, and reports where b first departs from a.
func Equal(t testing.TB, a, b Capture) {
	t.Helper()
	if r := report(b, a.header(), a.body(0), "first run"); r != "" {
		t.Errorf("the runs differ:\n%s", r)
	}
}

// report describes the first difference between c and a header and body
// taken from elsewhere (a golden, or another run, named by other), or
// returns "" when there is none.
func report(c Capture, header string, body []string, other string) string {
	var r strings.Builder
	if got := c.header(); got != header {
		fmt.Fprintf(&r, "header: got %q, %s %q\n", got, other, header)
	}
	chunk := chunkOf(body)
	got := c.body(chunk)
	n := 0
	for n < len(got) && n < len(body) && got[n] == body[n] {
		n++
	}
	if n == len(got) && n == len(body) {
		return r.String()
	}
	line := func(lines []string) string {
		if n < len(lines) {
			return lines[n]
		}
		return "(end)"
	}
	switch {
	case c.Lines != nil:
		fmt.Fprintf(&r, "first difference at line %d:\n  got:  %s\n  %s: %s\n", n+1, line(got), other, line(body))
	case chunk > 0:
		first, last := n*chunk, min((n+1)*chunk, len(c.Stream))
		fmt.Fprintf(&r, "first divergent chunk %d (events %d+%d):\n  got:  %s\n  %s: %s\nthis run's events in it:\n",
			n, first, chunk, line(got), other, line(body))
		for k := first; k < min(last, first+maxShown); k++ {
			fmt.Fprintf(&r, "  event %d %s\n", k, c.Stream[k])
		}
	case n == len(c.Stream):
		fmt.Fprintf(&r, "first divergence at event %d: this run ended; %s has %q\n", n, other, line(body))
	default:
		e := c.Stream[n]
		fmt.Fprintf(&r, "first divergence at event %d (%s); %s has %q\npreceding events on domain %d:\n",
			n, e, other, line(body), e.domain())
		var prev []int
		for k := n - 1; k >= 0 && len(prev) < preceding; k-- {
			if c.Stream[k].domain() == e.domain() {
				prev = append(prev, k)
			}
		}
		for _, k := range slices.Backward(prev) {
			fmt.Fprintf(&r, "  event %d %s\n", k, c.Stream[k])
		}
		if c.Trace != nil {
			fmt.Fprintf(&r, "trace at %v:\n", e.When)
			for _, l := range strings.Split(string(c.Trace), "\n") {
				if f := strings.Fields(l); len(f) > 0 && f[0] == e.When.String() {
					fmt.Fprintf(&r, "  %s\n", strings.TrimSpace(l))
				}
			}
		}
	}
	return r.String()
}
