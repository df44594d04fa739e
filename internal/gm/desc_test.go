package gm

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// A callback that fires for a descriptor nobody holds — a step scheduled
// twice, or a descriptor freed while one of its events is still queued —
// would run some other packet's state. It panics instead, on every path:
// a received packet's, a transmitted packet's (unicast and the extension's
// are the same descriptor), and a message's send token.
func TestFreedDescriptorStepPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	n := r.nics[0]
	rx := n.newDesc(&Frame{Kind: KindData}, rxLook)
	tx := n.txDesc(&Frame{Kind: KindMcastData}, nil, nil, -1, 0, 0)
	var tok *Token
	r.eng.Spawn("host", func(p *sim.Proc) { tok = r.ports[0].newToken(p, 1, 1, nil) })
	r.run(t)
	steps := []struct {
		name string
		step func()
	}{{"rx", rx.step}, {"tx", tx.step}, {"token", tok.step}}
	rx.free()
	tx.free()
	tok.done()
	if free, made := n.Descriptors(); free != 2 || made != 2 {
		t.Fatalf("free list holds %d of %d descriptors, want 2 of 2", free, made)
	}
	for _, s := range steps {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "free list") {
					t.Errorf("%s step of a freed descriptor: recovered %v, want the free-list panic", s.name, r)
				}
			}()
			s.step()
		}()
	}
	// A freed descriptor is reused, not remade, and its callback stays bound.
	if again := n.newDesc(&Frame{}, txBuffer); again != tx || again.step == nil {
		t.Fatal("the freed descriptor was not the one handed out next")
	}
}
