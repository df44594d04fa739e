package gm

import (
	"strings"
	"testing"
)

// A callback that fires for a descriptor nobody holds would run some other
// packet's state; it panics instead.
func TestFreedDescriptorStepPanics(t *testing.T) {
	n := newRig(t, 2, nil).nics[0]
	d := n.newDesc(&Frame{Kind: KindData}, rxLook)
	step := d.step
	d.free()
	tok := n.Port(1).newToken(1, 1, nil)
	tokStep := tok.step
	tok.done()
	for name, step := range map[string]func(){"packet": step, "send": tokStep} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "free list") {
					t.Errorf("step of a freed %s descriptor: recovered %v, want the free-list panic", name, r)
				}
			}()
			step()
		}()
	}
	if again := n.newDesc(&Frame{}, txBuffer); again != d {
		t.Fatal("the freed descriptor was not the one handed out next")
	}
}
