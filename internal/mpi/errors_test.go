package mpi

import (
	"errors"
	"testing"
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
	w := newWorld(t, 2, false)
	w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		if err := recoverErr(t, func() { r.Send(1, -1, []byte("x")) }); !errors.Is(err, ErrNegativeTag) {
			t.Errorf("negative tag send: got %v, want ErrNegativeTag", err)
		}
		if err := recoverErr(t, func() { r.Recv(1, -5) }); !errors.Is(err, ErrNegativeTag) {
			t.Errorf("negative tag recv: got %v, want ErrNegativeTag", err)
		}
		if err := recoverErr(t, func() { r.Send(0, 1, []byte("x")) }); !errors.Is(err, ErrSelfSend) {
			t.Errorf("self send: got %v, want ErrSelfSend", err)
		}
	})
}

// An eager Bcast into a buffer of another length is an error on both
// paths. 48 and 64 bytes share a size class, so under UseNB the ranks
// agree on the multicast group and the message does arrive.
func TestBcastCountMismatch(t *testing.T) {
	for _, useNB := range []bool{false, true} {
		w := newWorld(t, 2, useNB)
		w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.Bcast(0, pattern(64))
				return
			}
			if err := recoverErr(t, func() { r.Bcast(0, make([]byte, 48)) }); !errors.Is(err, ErrCountMismatch) {
				t.Errorf("NB=%v: 64-byte bcast into 48 bytes: got %v, want ErrCountMismatch", useNB, err)
			}
		})
	}
}
