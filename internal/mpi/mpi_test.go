package mpi

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func newWorld(t *testing.T, nodes int, useNB bool) *World {
	t.Helper()
	return NewWorld(cluster.New(nodes), useNB)
}

// counter reads one counter out of a snapshot. A key no instrument reports
// fails the test, so a misspelled name cannot pass as a zero count.
func counter(t testing.TB, s metrics.Snapshot, component string, node int, name string) uint64 {
	t.Helper()
	k := metrics.Key{Component: component, Node: node, Name: name}
	for _, c := range s.Counters {
		if c.Key == k {
			return c.Value
		}
	}
	t.Fatalf("no counter %v in the snapshot", k)
	return 0
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*167 + 3)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	w := newWorld(t, 2, false)
	msg := pattern(1000)
	var got []byte
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 5, msg)
		case 1:
			got = r.Recv(0, 5)
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("eager message corrupted")
	}
}

// EagerMax bytes is the largest message that goes through; one byte more
// is refused before anything is posted.
func TestEagerMaxBoundary(t *testing.T) {
	w := newWorld(t, 2, false)
	msg := pattern(EagerMax)
	var got []byte
	var err error
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, msg)
			err = recoverErr(t, func() { r.Send(1, 1, pattern(EagerMax+1)) })
		case 1:
			got = r.Recv(0, 1)
		}
	})
	if !bytes.Equal(got, msg) {
		t.Fatalf("an EagerMax message arrived corrupted")
	}
	if !errors.Is(err, ErrExceedsEager) {
		t.Fatalf("an EagerMax+1 send: got %v, want ErrExceedsEager", err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := newWorld(t, 2, false)
	var first, second []byte
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, []byte("tag-one"))
			r.Send(1, 2, []byte("tag-two"))
		case 1:
			// Receive in reverse tag order; the unexpected queue must hold
			// the earlier message.
			second = r.Recv(0, 2)
			first = r.Recv(0, 1)
		}
	})
	if string(first) != "tag-one" || string(second) != "tag-two" {
		t.Fatalf("tag matching broken: %q %q", first, second)
	}
}

// A message that arrives while the receiver computes is accepted by the
// NIC into the preposted buffers without the host, so the late Recv finds
// it waiting and returns almost at once.
func TestUnexpectedMessagesBuffered(t *testing.T) {
	w := newWorld(t, 2, false)
	var got []byte
	var wait sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, pattern(64))
		case 1:
			r.Proc().Compute(5 * sim.Millisecond) // arrive long after the message
			t0 := r.Now()
			got = r.Recv(0, 7)
			wait = r.Now() - t0
		}
	})
	if !bytes.Equal(got, pattern(64)) {
		t.Fatal("late receiver missed buffered message")
	}
	if wait > 5*sim.Microsecond {
		t.Fatalf("Recv took %v after compute; the message was not waiting", wait)
	}
}

// An eager Send completes locally: it returns before the receiver has
// posted its Recv, and the message waits intact in the preposted buffers.
func TestIsendIrecvEager(t *testing.T) {
	w := newWorld(t, 2, false)
	var got []byte
	var sendDone, recvPosted sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 3, pattern(500))
			sendDone = r.Now()
		case 1:
			r.Proc().Sleep(200 * sim.Microsecond)
			recvPosted = r.Now()
			got = r.Recv(0, 3)
		}
	})
	if !bytes.Equal(got, pattern(500)) {
		t.Fatal("eager transfer corrupted")
	}
	if sendDone >= recvPosted {
		t.Fatalf("eager Send returned at %v, not before the Recv was posted at %v", sendDone, recvPosted)
	}
}

// The message arrives while the receiver computes; the Recv afterwards
// must return almost immediately — the NIC accepted it into the preposted
// buffers without the host.
func TestIrecvOverlapsComputation(t *testing.T) {
	w := newWorld(t, 2, false)
	var got []byte
	var computeEnd, recvEnd sim.Time
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 3, pattern(1000))
		case 1:
			r.Proc().Compute(500 * sim.Microsecond)
			computeEnd = r.Now()
			got = r.Recv(0, 3)
			recvEnd = r.Now()
		}
	})
	if !bytes.Equal(got, pattern(1000)) {
		t.Fatal("message received after compute corrupted")
	}
	if gap := recvEnd - computeEnd; gap > 5*sim.Microsecond {
		t.Fatalf("Recv took %v after compute; no overlap achieved", gap)
	}
}

// A receive with a negative (internal) tag is refused.
func TestIrecvNegativeTagPanics(t *testing.T) {
	w := newWorld(t, 2, false)
	panicked := false
	w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Recv(1, -3)
	})
	if !panicked {
		t.Fatal("negative-tag Recv accepted")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newWorld(t, 7, false)
	entry := make([]sim.Time, 7)
	exit := make([]sim.Time, 7)
	w.Run(func(r *Rank) {
		r.Proc().Sleep(sim.Time(r.ID()) * 100 * sim.Microsecond)
		entry[r.ID()] = r.Now()
		r.Barrier()
		exit[r.ID()] = r.Now()
	})
	var lastEntry sim.Time
	for _, e := range entry {
		if e > lastEntry {
			lastEntry = e
		}
	}
	for i, x := range exit {
		if x < lastEntry {
			t.Fatalf("rank %d left the barrier at %v before rank entry %v", i, x, lastEntry)
		}
	}
}

func testBcast(t *testing.T, nodes, size, root int, useNB bool) {
	t.Helper()
	w := newWorld(t, nodes, useNB)
	msg := pattern(size)
	results := make([][]byte, nodes)
	w.Run(func(r *Rank) {
		var buf []byte
		if r.ID() == root {
			buf = msg
		} else {
			buf = make([]byte, size)
		}
		results[r.ID()] = r.Bcast(root, buf)
	})
	for i, got := range results {
		if !bytes.Equal(got, msg) {
			t.Fatalf("rank %d bcast result corrupted (nodes=%d size=%d NB=%v)", i, nodes, size, useNB)
		}
	}
}

func TestBcastHostBased(t *testing.T) {
	for _, nodes := range []int{2, 3, 4, 8, 13, 16} {
		for _, size := range []int{1, 100, 4096, 16287} {
			testBcast(t, nodes, size, 0, false)
		}
	}
}

func TestBcastNICBased(t *testing.T) {
	for _, nodes := range []int{2, 3, 4, 8, 13, 16} {
		for _, size := range []int{1, 100, 4096, 16287} {
			testBcast(t, nodes, size, 0, true)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	testBcast(t, 8, 512, 5, false)
	testBcast(t, 8, 512, 5, true)
}

func TestBcastGroupContextReused(t *testing.T) {
	w := newWorld(t, 8, true)
	w.Run(func(r *Rank) {
		for i := 0; i < 5; i++ {
			buf := make([]byte, 256)
			if r.ID() == 0 {
				copy(buf, pattern(256))
			}
			r.Bcast(0, buf)
			r.Barrier()
		}
	})
	for _, n := range w.C.Nodes {
		if got := n.Ext.Groups(); got != 1 {
			t.Fatalf("node %v has %d group contexts after 5 same-size bcasts, want 1", n.ID, got)
		}
	}
}

func TestBcastDistinctRootsGetDistinctGroups(t *testing.T) {
	w := newWorld(t, 4, true)
	w.Run(func(r *Rank) {
		for root := 0; root < 4; root++ {
			buf := make([]byte, 64)
			if r.ID() == root {
				copy(buf, pattern(64))
			}
			r.Bcast(root, buf)
			r.Barrier()
		}
	})
	for _, n := range w.C.Nodes {
		if got := n.Ext.Groups(); got != 4 {
			t.Fatalf("node %v has %d group contexts, want 4", n.ID, got)
		}
	}
}

func TestBcastRepeatedBackToBack(t *testing.T) {
	// Many NB bcasts without barriers: ordering within the group plus
	// sufficient preposted tokens must keep every rank consistent.
	const rounds = 20
	w := newWorld(t, 8, true)
	sums := make([]int, 8)
	w.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			buf := make([]byte, 128)
			if r.ID() == 0 {
				buf[0] = byte(i)
			}
			out := r.Bcast(0, buf)
			sums[r.ID()] += int(out[0])
		}
	})
	want := rounds * (rounds - 1) / 2
	for i, s := range sums {
		if s != want {
			t.Fatalf("rank %d accumulated %d, want %d (lost or reordered bcasts)", i, s, want)
		}
	}
}

// Back-to-back host-based broadcasts under loss: go-back-N re-reads a
// send's buffer until the send completes, so an envelope buffer reused
// before then would put a later round's pattern under an earlier round's
// sequence number. The designated rank's reply each round is one more
// pooled send, of another size.
func TestEagerSendBuffersSurviveRetransmission(t *testing.T) {
	const nodes, rounds, size = 4, 40, 1500
	c := cluster.New(nodes, cluster.WithLossRate(0.05), cluster.WithSeed(1))
	w := NewWorld(c, false)
	round := func(i int) []byte {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(i*53 + j*7 + 1)
		}
		return b
	}
	corrupted := 0
	w.Run(func(r *Rank) {
		for i := 0; i < rounds; i++ {
			want := round(i)
			buf := make([]byte, size)
			if r.ID() == 0 {
				copy(buf, want)
			}
			if !bytes.Equal(r.Bcast(0, buf), want) {
				corrupted++
			}
			designated := 1 + i%(nodes-1)
			switch r.ID() {
			case designated:
				r.Send(0, 1, want[:16])
			case 0:
				if !bytes.Equal(r.Recv(designated, 1), want[:16]) {
					corrupted++
				}
			}
		}
	})
	if corrupted != 0 {
		t.Fatalf("%d of %d broadcast results and replies arrived corrupted", corrupted, rounds*(nodes+1))
	}
	var resent uint64
	snap := c.Nodes[0].HW.Registry().Snapshot()
	for _, n := range c.Nodes {
		resent += counter(t, snap, gm.Component, int(n.ID), "retransmits")
	}
	if resent == 0 {
		t.Fatal("no retransmissions: the loss rate did not exercise go-back-N")
	}
}

// A scalar allreduce is a one-element AllreduceVec: 1+2+...+9 on every
// rank, on both paths.
func TestAllreduce(t *testing.T) {
	for _, useNB := range []bool{false, true} {
		w := newWorld(t, 9, useNB)
		results := make([]int64, 9)
		w.Run(func(r *Rank) {
			results[r.ID()] = r.AllreduceVec([]int64{int64(r.ID() + 1)}, coll.OpSum)[0]
		})
		for i, got := range results {
			if got != 45 {
				t.Fatalf("rank %d allreduce = %v, want 45 (NB=%v)", i, got, useNB)
			}
		}
	}
}

// Every rank broadcasts in turn: each rank ends with every root's buffer,
// in root order, on both paths.
func TestAlltoallBcast(t *testing.T) {
	for _, useNB := range []bool{false, true} {
		w := newWorld(t, 5, useNB)
		results := make([][][]byte, 5)
		w.Run(func(r *Rank) {
			all := make([][]byte, r.Size())
			for root := range all {
				buf := make([]byte, 4)
				if root == r.ID() {
					copy(buf, []byte{byte(root), 0xAA, 0xBB, 0xCC})
				}
				all[root] = r.Bcast(root, buf)
			}
			results[r.ID()] = all
		})
		for rank, all := range results {
			if len(all) != 5 {
				t.Fatalf("rank %d got %d buffers", rank, len(all))
			}
			for root, buf := range all {
				if !bytes.Equal(buf, []byte{byte(root), 0xAA, 0xBB, 0xCC}) {
					t.Fatalf("rank %d slot %d holds %v (NB=%v)", rank, root, buf, useNB)
				}
			}
		}
	}
}

func TestNegativeUserTagPanics(t *testing.T) {
	w := newWorld(t, 2, false)
	var panicked bool
	w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Send(1, -1, nil)
	})
	if !panicked {
		t.Fatal("negative user tag accepted")
	}
}

func TestSingletonWorld(t *testing.T) {
	w := newWorld(t, 1, true)
	w.Run(func(r *Rank) {
		r.Barrier()
		out := r.Bcast(0, []byte{42})
		if out[0] != 42 {
			t.Error("singleton bcast broken")
		}
	})
}

// The envelope keeps MPICH-GM's 13-byte layout: kind, communicator id
// (always MPI_COMM_WORLD's 0), tag, a sequence slot (always 0), then the
// payload.
func TestWireEnvelopeRoundTrip(t *testing.T) {
	e := envelope{kCtlGroup, 1234}
	enc := newWorld(t, 2, false).ranks[0].encodeEnvelope(e, []byte("payload"))
	want := []byte{byte(kCtlGroup), 0, 0, 0, 0, 0xd2, 0x04, 0, 0, 0, 0, 0, 0}
	if envelopeBytes != 13 || len(enc) != envelopeBytes+len("payload") || !bytes.Equal(enc[:envelopeBytes], want) {
		t.Fatalf("envelope layout: % x, want % x", enc[:min(len(enc), envelopeBytes)], want)
	}
	got, body := decodeEnvelope(enc)
	if got != e || string(body) != "payload" {
		t.Fatalf("envelope round trip: %+v %q", got, body)
	}
}

func TestTreeEncodingRoundTrip(t *testing.T) {
	cfg := cluster.DefaultConfig(16)
	tr := cfg.OptimalTree(3, cluster.New(cfg.Nodes, cluster.WithConfig(cfg)).Members(), 256)
	enc := encodeTree(77, tr)
	gid, back := decodeTree(enc)
	if gid != 77 {
		t.Fatalf("gid %d, want 77", gid)
	}
	if back.Root != tr.Root || back.Size() != tr.Size() || back.Depth() != tr.Depth() {
		t.Fatal("tree shape changed across encoding")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() {
		a, b := tr.Children(n), back.Children(n)
		if len(a) != len(b) {
			t.Fatalf("node %v children differ", n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %v child order changed: %v vs %v", n, a, b)
			}
		}
	}
}

func TestSizeBucket(t *testing.T) {
	cases := []struct {
		n      int
		bucket uint8
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {4096, 12}, {16287, 14},
	}
	for _, c := range cases {
		if got := sizeBucket(c.n); got != c.bucket {
			t.Errorf("sizeBucket(%d) = %d, want %d", c.n, got, c.bucket)
		}
	}
}

func TestWorldDeterministicReplay(t *testing.T) {
	run := func() uint64 {
		c := cluster.New(6)
		w := NewWorld(c, true)
		w.Run(func(r *Rank) {
			for i := 0; i < 4; i++ {
				buf := make([]byte, 256)
				if r.ID() == i%3 {
					copy(buf, pattern(256))
				}
				r.Bcast(i%3, buf)
				r.AllreduceVec([]int64{int64(r.ID())}, coll.OpSum)
			}
		})
		return c.Eng.EventsFired()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("MPI replay diverged: %d vs %d events", a, b)
	}
}
