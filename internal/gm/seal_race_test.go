//go:build race

package gm

import (
	"fmt"
	"strings"
	"testing"
)

// The negative control for the seal: a frame written after its Inject — a
// forwarder rewriting the header in place for its next child, a sender
// reusing the frame for the next chunk — is caught at the next NIC that
// touches it, whichever comes first: the delivery of the copy in flight or
// the sender's own re-injection. A frame nobody writes is delivered as ever
// (every other test is that positive control).
func TestFrameWrittenAfterInjectIsCaught(t *testing.T) {
	for _, again := range []bool{false, true} {
		r := newRig(t, 2, nil)
		r.ports[1].Provide(64)
		fr := &Frame{Kind: KindData, SrcPort: 1, DstPort: 1, Seq: 1, MsgID: 1, MsgLen: 4, Payload: []byte{1, 2, 3, 4}}
		r.eng.At(0, func() {
			r.nics[0].Inject(fr, 1, nil)
			fr.Seq++ // the bug
			if again {
				r.nics[0].Inject(fr, 1, nil)
			}
		})
		var caught string
		func() {
			defer func() { caught = fmt.Sprint(recover()) }()
			r.run(t)
		}()
		want := "written after it was injected, seen at n1"
		if again {
			want = "written after it was injected, seen at n0"
		}
		if !strings.Contains(caught, want) {
			t.Errorf("re-inject %v: the run ended with %q, want a panic saying %q", again, caught, want)
		}
	}
}

// The negative control for the release mark: a sender that releases its
// frame once too often while a packet carrying it is in flight — the seeded
// extra release — sends the frame back to the pool under the packet, and
// the delivery panics at the receiving NIC instead of landing whatever the
// pool's next packet writes there. A new hold of a released frame panics
// too, as a stale pointer's re-injection would.
func TestReleasedFrameIsCaught(t *testing.T) {
	r := newRig(t, 2, nil)
	r.ports[1].Provide(64)
	fr := r.nics[0].NewFrame()
	fr.Kind, fr.SrcPort, fr.DstPort, fr.Seq, fr.MsgID, fr.MsgLen, fr.Payload = KindData, 1, 1, 1, 1, 4, []byte{1, 2, 3, 4}
	r.eng.At(0, func() {
		r.nics[0].Inject(fr, 1, nil)
		fr.Release() // the bug: the packet's hold was the only one
	})
	var caught string
	func() {
		defer func() { caught = fmt.Sprint(recover()) }()
		r.run(t)
	}()
	if want := "released frame delivered at n1"; !strings.Contains(caught, want) {
		t.Errorf("the run ended with %q, want a panic saying %q", caught, want)
	}
	func() {
		defer func() { caught = fmt.Sprint(recover()) }()
		fr.Hold()
	}()
	if want := "hold of a released frame"; !strings.Contains(caught, want) {
		t.Errorf("a new hold ended with %q, want a panic saying %q", caught, want)
	}
}
