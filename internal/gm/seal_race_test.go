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
