package gm

import "testing"

// The last release files a frame in its pool, blank — its payload, the
// sender's host memory, dropped with the header — and the next NewFrame on
// the engine hands the same frame out again. Until then each holder keeps it.
func TestFramePoolRecyclesOnLastRelease(t *testing.T) {
	r := newRig(t, 2, nil)
	n := r.nics[0]
	fr := n.NewFrame()
	fr.Kind, fr.Seq, fr.Payload = KindData, 7, pattern(16)
	fr.Hold()
	fr.Hold()
	fr.Release()
	if free, made := n.Frames(); free != 0 || made != 1 {
		t.Fatalf("with one holder left the pool has %d of %d frames, want 0 of 1", free, made)
	}
	fr.Release()
	if free, made := n.Frames(); free != 1 || made != 1 {
		t.Fatalf("after the last release the pool has %d of %d frames, want 1 of 1", free, made)
	}
	if fr.Payload != nil || fr.Seq != 0 {
		t.Errorf("a released frame keeps seq %d and %d payload bytes, want neither", fr.Seq, len(fr.Payload))
	}
	again := n.NewFrame()
	if again != fr || again.Kind != 0 || again.holds != 0 {
		t.Errorf("NewFrame after a release gave %p (kind %v, %d holders), want the blank released frame %p", again, again.Kind, again.holds, fr)
	}
	if free, made := n.Frames(); free != 0 || made != 1 {
		t.Errorf("after taking it back the pool has %d of %d frames, want 0 of 1", free, made)
	}
	n.DropHostBuffers()
	if free, made := n.Frames(); free != 0 || made != 1 {
		t.Errorf("a held frame survives the drop: the pool has %d of %d frames, want 0 of 1", free, made)
	}
}

// An extra release is the one bug the count cannot absorb, so it panics in
// every build: on a frame the pool already has, and on one never held.
func TestFrameReleaseWithNoHolderPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	pooled := r.nics[0].NewFrame()
	pooled.Hold()
	pooled.Release()
	for name, fr := range map[string]*Frame{"released": pooled, "never held": r.nics[1].NewFrame(), "made by hand": {}} {
		mustPanic(t, "an extra release of a "+name+" frame", "frame released with no holder left", fr.Release)
	}
}

// A pinned frame counts nothing and never goes back to a pool: the fabric
// has made a copy of a packet carrying it that no holder will release.
func TestPinnedFrameIsNeverRecycled(t *testing.T) {
	r := newRig(t, 2, nil)
	n := r.nics[0]
	fr := n.NewFrame()
	fr.Hold()
	fr.Pin()
	fr.Pin()
	for range 3 {
		fr.Release()
	}
	fr.Hold()
	if free, made := n.Frames(); free != 0 || made != 1 {
		t.Errorf("a pinned frame released past its holds leaves the pool with %d of %d frames, want 0 of 1", free, made)
	}
}
