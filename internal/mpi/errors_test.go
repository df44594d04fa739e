package mpi

import (
	"errors"
	"testing"

	"repro/internal/coll"
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

// Every path that would send more than EagerMax bytes in one message
// refuses up front, on every rank: a point-to-point send, a broadcast on
// either world, an allreduce vector on either world, and an allgather
// whose largest Bruck exchange (2 blocks of 1100 elements on 4 ranks,
// 17,600 bytes) is past the limit.
func TestExceedsEagerPanics(t *testing.T) {
	big := pattern(EagerMax + 1)
	vec := make([]int64, EagerMax/8+1)
	for _, tc := range []struct {
		name  string
		useNB bool
		op    func(r *Rank)
	}{
		{"send", false, func(r *Rank) { r.Send((r.ID()+1)%r.Size(), 1, big) }},
		{"bcast-host", false, func(r *Rank) { r.Bcast(0, big) }},
		{"bcast-nic", true, func(r *Rank) { r.Bcast(0, big) }},
		{"allreduce-host", false, func(r *Rank) { r.AllreduceVec(vec, coll.OpSum) }},
		{"allreduce-nic", true, func(r *Rank) { r.AllreduceVec(vec, coll.OpSum) }},
		{"allgather", true, func(r *Rank) { r.AllgatherVec(make([]int64, 1100)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 4, tc.useNB)
			refused := make([]bool, w.Size())
			w.Run(func(r *Rank) {
				err := recoverErr(t, func() { tc.op(r) })
				refused[r.ID()] = errors.Is(err, ErrExceedsEager)
				if !refused[r.ID()] {
					t.Errorf("rank %d: got %v, want ErrExceedsEager", r.ID(), err)
				}
			})
			for id, ok := range refused {
				if !ok {
					t.Errorf("rank %d did not refuse", id)
				}
			}
		})
	}
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
