package trace

import (
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Log(1, 0, TX, "ignored")
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
}

func TestWriteTimelineFormat(t *testing.T) {
	r := NewRecorder()
	r.Log(1500, 3, Fwd, "grp=7 seq=2 -> n5")
	var b strings.Builder
	r.WriteTimeline(&b)
	out := b.String()
	for _, want := range []string{"n3", "fwd", "grp=7 seq=2 -> n5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline %q missing %q", out, want)
		}
	}
}

func TestWriteLanes(t *testing.T) {
	r := NewRecorder()
	r.Log(1, 2, TX, "first")
	r.Log(2, 0, RX, "second")
	var b strings.Builder
	r.WriteLanes(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lane view has %d lines, want header + 2 events", len(lines))
	}
	if !strings.Contains(lines[0], "n0") || !strings.Contains(lines[0], "n2") {
		t.Fatalf("lane header %q missing node columns", lines[0])
	}
	// Node 0's lane comes before node 2's: the RX mark should appear at a
	// smaller column offset than the TX mark.
	txCol := strings.Index(lines[1], "tx")
	rxCol := strings.Index(lines[2], "rx")
	if rxCol >= txCol {
		t.Fatalf("lane columns not ordered by node: tx@%d rx@%d", txCol, rxCol)
	}
}
