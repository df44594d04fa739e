package mpi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/tree"
)

// Point-to-point messages carry a small MPI envelope ahead of the user
// payload; multicast broadcast data rides groups raw (group identity and
// ordering replace the envelope).

type msgKind uint8

// The message kinds. They ride the wire, so each keeps its value.
const (
	kEager    msgKind = 1 // eager data: envelope + payload
	kCtlGroup msgKind = 5 // group-creation control: envelope + tree
	kCtlAck   msgKind = 6 // group-creation acknowledgment
)

const envelopeBytes = 1 + 4 + 4 + 4 // kind, comm, tag, seq

// worldCommID is MPI_COMM_WORLD's communicator id, the one every envelope
// carries: the layout keeps MPICH-GM's communicator field. The sequence
// slot is kept the same way, always zero: wire bytes set every MPI timing.
const worldCommID uint32 = 0

// envelope is the MPI matching header.
type envelope struct {
	kind msgKind
	tag  int32
}

// encodeEnvelope writes e and body into one of the rank's send buffers for
// Port.Send, which reads it until that send completes. So a buffer is held
// once encoded, and only when all the port's send tokens are back — every
// send it posted has completed — do the held buffers become spare. It takes
// the smallest spare that fits, or makes one.
func (r *Rank) encodeEnvelope(e envelope, body []byte) []byte {
	if r.port.FreeSendTokens() == r.w.C.Cfg.GM.SendTokens {
		r.sendSpare = append(r.sendSpare, r.sendHeld...)
		r.sendHeld = r.sendHeld[:0]
	}
	n := envelopeBytes + len(body)
	best := -1
	for i, b := range r.sendSpare {
		if cap(b) >= n && (best == -1 || cap(b) < cap(r.sendSpare[best])) {
			best = i
		}
	}
	var out []byte
	if best == -1 {
		out = make([]byte, n)
	} else {
		out = r.sendSpare[best][:n]
		last := len(r.sendSpare) - 1
		r.sendSpare[best] = r.sendSpare[last]
		r.sendSpare[last] = nil
		r.sendSpare = r.sendSpare[:last]
	}
	r.sendHeld = append(r.sendHeld, out)
	out[0] = byte(e.kind)
	binary.LittleEndian.PutUint32(out[1:], worldCommID)
	binary.LittleEndian.PutUint32(out[5:], uint32(e.tag))
	binary.LittleEndian.PutUint32(out[9:], 0)
	copy(out[envelopeBytes:], body)
	return out
}

func decodeEnvelope(data []byte) (envelope, []byte) {
	if len(data) < envelopeBytes {
		panic(fmt.Sprintf("mpi: short message (%d bytes)", len(data)))
	}
	return envelope{
		kind: msgKind(data[0]),
		tag:  int32(binary.LittleEndian.Uint32(data[5:])),
	}, data[envelopeBytes:]
}

// encodeTree flattens a spanning tree into (root, count, [node, parent]...)
// for the group-creation control message.
func encodeTree(gid uint32, tr *tree.Tree) []byte {
	parents := tr.Parents()
	out := make([]byte, 4+4+4+8*len(parents))
	binary.LittleEndian.PutUint32(out[0:], gid)
	binary.LittleEndian.PutUint32(out[4:], uint32(tr.Root))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(parents)))
	i := 12
	for _, n := range tr.Nodes() { // deterministic order
		p, ok := tr.Parent(n)
		if !ok {
			continue
		}
		binary.LittleEndian.PutUint32(out[i:], uint32(n))
		binary.LittleEndian.PutUint32(out[i+4:], uint32(p))
		i += 8
	}
	return out
}

func decodeTree(b []byte) (gid uint32, tr *tree.Tree) {
	gid = binary.LittleEndian.Uint32(b[0:])
	root := fabric.NodeID(binary.LittleEndian.Uint32(b[4:]))
	n := int(binary.LittleEndian.Uint32(b[8:]))
	parents := make(map[fabric.NodeID]fabric.NodeID, n)
	i := 12
	for k := 0; k < n; k++ {
		c := fabric.NodeID(binary.LittleEndian.Uint32(b[i:]))
		p := fabric.NodeID(binary.LittleEndian.Uint32(b[i+4:]))
		parents[c] = p
		i += 8
	}
	return gid, tree.FromParents(root, parents)
}
