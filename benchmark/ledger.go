package main

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Every message the generator posts starts with a 16-byte header: the
// operation's index in the ledger, its sequence number within its stream
// (a multicast group, or one unicast source→destination pair), and a
// checksum of the rest of the payload. Receivers verify all three, so a
// lost, duplicated, reordered or corrupted delivery is a failed operation.
const hdrLen = 16

// checksum folds the payload eight bytes at a time — cheap enough that
// verifying every delivered byte stays a few percent of a repetition.
func checksum(b []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x100000001b3
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// makePayload builds one message of the given size (at least hdrLen) with
// seeded content and its checksum; stampHeader fills in the operation and
// sequence number once the repetition's ledger assigns them.
func makePayload(rng *rand.Rand, size int) []byte {
	if size < hdrLen {
		size = hdrLen
	}
	b := make([]byte, size)
	rng.Read(b[hdrLen:])
	binary.LittleEndian.PutUint64(b[8:], checksum(b[hdrLen:]))
	return b
}

type opKind uint8

const (
	opMcast opKind = iota
	opUcast
	opBarrier
	opAllreduce
)

// opRec is one operation: a message that must reach every destination
// exactly once, in order and intact.
type opRec struct {
	kind  opKind
	root  fabric.NodeID // mcast: the sender, which receives nothing
	bytes int           // application payload bytes per destination
	post  sim.Time      // model time the operation was posted
	// rx holds, per destination slot, the model time of the host receive
	// event; 0 means not delivered and -1 a bad delivery (duplicate, out of
	// order, wrong checksum or wrong collective result). Multicasts and
	// collectives have one slot per host, unicasts a single slot.
	rx []sim.Time
	// enter holds, for collectives, when each member entered.
	enter []sim.Time
}

// ledger records what was posted and what arrived. Each slot is written by
// exactly one simulated process, so sharded runs need no locks.
type ledger struct {
	ops []opRec
	// stray counts deliveries that matched no operation, per receiving host.
	stray []int
}

func newLedger(nodes int) *ledger { return &ledger{stray: make([]int, nodes)} }

func (l *ledger) add(kind opKind, root fabric.NodeID, bytes, slots int) uint32 {
	o := opRec{kind: kind, root: root, bytes: bytes, rx: make([]sim.Time, slots)}
	if kind == opBarrier || kind == opAllreduce {
		o.enter = make([]sim.Time, slots)
	}
	l.ops = append(l.ops, o)
	return uint32(len(l.ops) - 1)
}

// deliver records one arrival; a second arrival in the same slot poisons it.
func (l *ledger) deliver(op uint32, slot int, at sim.Time, ok bool) {
	rx := l.ops[op].rx
	if rx[slot] != 0 || !ok {
		rx[slot] = -1
		return
	}
	rx[slot] = at
}

// receiver checks the messages one host receives on one port.
type receiver struct {
	led  *ledger
	node fabric.NodeID
	next map[uint32]uint32 // stream → next expected sequence number
}

func (l *ledger) receiver(node fabric.NodeID) *receiver {
	return &receiver{led: l, node: node, next: make(map[uint32]uint32)}
}

// accept verifies one received message. stream names the ordered flow the
// message belongs to (group index or source host); slot is where the
// operation records this destination.
func (r *receiver) accept(data []byte, stream uint32, slot int, at sim.Time) {
	if len(data) < hdrLen {
		r.led.stray[r.node]++
		return
	}
	op := binary.LittleEndian.Uint32(data[0:])
	seq := binary.LittleEndian.Uint32(data[4:])
	if int(op) >= len(r.led.ops) || slot >= len(r.led.ops[op].rx) {
		r.led.stray[r.node]++
		return
	}
	ok := seq == r.next[stream] &&
		len(data) == r.led.ops[op].bytes &&
		binary.LittleEndian.Uint64(data[8:]) == checksum(data[hdrLen:])
	if seq >= r.next[stream] {
		r.next[stream] = seq + 1
	}
	r.led.deliver(op, slot, at, ok)
}

// tally is the verified outcome of one repetition on the model clock.
type tally struct {
	attempted, failed int
	lat               []float64     // per-destination delivery latency, µs
	last              []float64     // per-multicast time to the last destination, µs
	collUs            []float64     // per-collective completion time, µs
	ops               [][2]sim.Time // per verified operation: post, last receive
	bytes             float64       // application payload bytes delivered
}

// settle checks every operation and collects its latencies. An operation
// with any missing or bad destination is failed and contributes no
// latency sample.
func (l *ledger) settle() tally {
	var t tally
	for i := range l.ops {
		o := &l.ops[i]
		t.attempted++
		post := o.post
		if o.enter != nil {
			post = o.enter[0]
			latest := o.enter[0]
			for _, e := range o.enter {
				if e < post {
					post = e
				}
				if e > latest {
					latest = e
				}
			}
			if o.kind == opBarrier {
				// Nobody may leave a barrier before everyone has entered.
				for s, at := range o.rx {
					if at > 0 && at < latest {
						o.rx[s] = -1
					}
				}
			}
		}
		ok := true
		var last sim.Time
		for s, at := range o.rx {
			if o.kind == opMcast && fabric.NodeID(s) == o.root {
				continue
			}
			if at <= 0 || at < post {
				ok = false
				break
			}
			if at > last {
				last = at
			}
		}
		if !ok {
			t.failed++
			continue
		}
		for s, at := range o.rx {
			if o.kind == opMcast && fabric.NodeID(s) == o.root {
				continue
			}
			t.lat = append(t.lat, (at - post).Micros())
			t.bytes += float64(o.bytes)
		}
		if o.kind == opMcast {
			t.last = append(t.last, (last - post).Micros())
		}
		t.ops = append(t.ops, [2]sim.Time{post, last})
		if o.enter != nil {
			t.collUs = append(t.collUs, (last - post).Micros())
		}
	}
	for _, n := range l.stray {
		t.attempted += n
		t.failed += n
	}
	return t
}
