package gm

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// recoverErr runs f and returns the recovered panic value as an error.
func recoverErr(t *testing.T, f func()) (err error) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected a panic")
		}
		e, ok := v.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", v, v)
		}
		err = e
	}()
	f()
	return nil
}

func TestSentinelErrorsAreIsable(t *testing.T) {
	r := newRig(t, 2, nil)
	n := r.nics[0]

	if err := recoverErr(t, func() { n.OpenPort(1) }); !errors.Is(err, ErrPortInUse) {
		t.Errorf("OpenPort twice: got %v, want ErrPortInUse", err)
	}
	if err := recoverErr(t, func() { n.Port(9) }); !errors.Is(err, ErrNoSuchPort) {
		t.Errorf("Port(9): got %v, want ErrNoSuchPort", err)
	}

	ext := extFunc(func(*Frame) bool { return false })
	n.SetExtension(ext)
	if err := recoverErr(t, func() { n.SetExtension(ext) }); !errors.Is(err, ErrExtensionInstalled) {
		t.Errorf("double SetExtension: got %v, want ErrExtensionInstalled", err)
	}
}

func TestTokenExhaustedError(t *testing.T) {
	r := newRig(t, 2, func(c *Config) { c.RecvTokensMax = 1 })
	p := r.ports[0]
	p.Provide(64)
	if err := recoverErr(t, func() { p.Provide(64) }); !errors.Is(err, ErrTokenExhausted) {
		t.Errorf("over-provide: got %v, want ErrTokenExhausted", err)
	}
}

func TestSelfSendError(t *testing.T) {
	r := newRig(t, 2, nil)
	r.eng.Spawn("self", func(p *sim.Proc) {
		if err := recoverErr(t, func() { r.ports[0].Send(p, 0, 1, []byte("x")) }); !errors.Is(err, ErrSelfSend) {
			t.Errorf("self send: got %v, want ErrSelfSend", err)
		}
	})
	r.run(t)
}
