package golden

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// reportTB stands in for a test so a mismatch's report can be read back.
type reportTB struct {
	testing.TB
	report string
}

func (r *reportTB) Helper() {}

func (r *reportTB) Errorf(format string, args ...any) { r.report += fmt.Sprintf(format, args...) }

// stream is n events over four domains, one per 10 ns.
func stream(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{sim.Time(10 * i), uint64(i%4)<<48 | uint64(i/4)}
	}
	return out
}

// TestDigestReport checks a stream too long to store event by event: the
// golden holds chunk digests, and a run that moves one event is reported by
// the chunk that holds it, with this run's events in it.
func TestDigestReport(t *testing.T) {
	c := Capture{Clock: 49990, Events: 5000, Stream: stream(5000)}
	Check(t, t.Name(), "stream5000", c)
	if Updating() {
		return
	}
	c.Stream[3000].When++
	r := &reportTB{TB: t}
	Check(r, t.Name(), "stream5000", c)
	for _, want := range []string{
		"first divergent chunk 11 (events 2816+256)",
		"  event 3000 t=30001 key=0x2ee domain=0",
	} {
		if !strings.Contains(r.report, want) {
			t.Errorf("report lacks %q:\n%s", want, r.report)
		}
	}
}

// TestLinesReport checks a table: the report names the first differing line.
func TestLinesReport(t *testing.T) {
	a := Capture{Lines: []string{"counter gm[0].acks_sent 3", "counter gm[1].acks_sent 4"}}
	b := Capture{Lines: []string{"counter gm[0].acks_sent 3", "counter gm[1].acks_sent 5"}}
	r := &reportTB{TB: t}
	Equal(r, a, b)
	want := "first difference at line 2:\n  got:  counter gm[1].acks_sent 5\n  first run: counter gm[1].acks_sent 4\n"
	if !strings.Contains(r.report, want) {
		t.Errorf("report lacks %q:\n%s", want, r.report)
	}
	r.report = ""
	Equal(r, a, a)
	if r.report != "" {
		t.Errorf("identical captures reported:\n%s", r.report)
	}
}
