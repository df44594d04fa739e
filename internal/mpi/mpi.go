// Package mpi is an MPICH-GM-like message-passing layer over the GM
// substrate: tagged point-to-point sends with an eager protocol up to
// 16,287 bytes and a rendezvous protocol above it, plus the collectives
// the paper evaluates — MPI_Bcast in both its traditional host-based
// binomial form and the modified, NIC-based-multicast form with
// demand-driven group creation — along with Barrier, Allreduce and
// All-to-all broadcast (the paper's future-work collectives).
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// EagerMax is the largest eager-mode message, the MPICH-GM constant the
// paper cites: broadcasts above it fall back to the host-based algorithm
// (rendezvous transfers use remote DMA in MPICH-GM).
const EagerMax = 16287

// mpiPort is the GM port number the MPI library opens on every node.
const mpiPort gm.PortID = 2

// eagerTokens is how many eager receive buffers the library preposts per
// rank and keeps replenished.
const eagerTokens = 128

// internal tags (user tags must be >= 0).
const (
	tagBarrier int32 = -100 - iota
	tagBcast
	tagCtl
	tagGather
	tagSplit
	tagScatter
	tagAllreduce
	tagAllgather
)

// World binds an MPI job to a simulated cluster: rank i runs on node i.
type World struct {
	C *cluster.Cluster
	// UseNB selects the NIC-based multicast broadcast; false reproduces
	// stock MPICH-GM's host-based binomial broadcast.
	UseNB bool

	ranks []*Rank
}

// NewWorld creates an MPI world over every node of the cluster.
func NewWorld(c *cluster.Cluster, useNB bool) *World {
	w := &World{C: c, UseNB: useNB}
	for i := range c.Nodes {
		r := &Rank{
			w:           w,
			id:          i,
			bcastGroups: make(map[bcastKey]*bcastGroup),
			collGroups:  make(map[uint32]gm.GroupID),
			collTrees:   make(map[uint32]bool),
			splitEpochs: make(map[uint32]int),
		}
		// Port setup schedules host->NIC events; attribute them to the
		// rank's node so their tiebreak keys are shard-stable.
		c.WithNode(fabric.NodeID(i), func() {
			r.port = c.Nodes[i].NIC.OpenPort(mpiPort)
			r.port.ProvideN(eagerTokens, EagerMax+envelopeBytes)
		})
		w.ranks = append(w.ranks, r)
	}
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i (for inspection; programs receive their Rank).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Run spawns prog as one simulated process per rank and drives the
// simulation until the job goes quiet. The engines are left intact for
// inspection; Kill releases any still-parked processes.
func (w *World) Run(prog func(r *Rank)) {
	w.Spawn(prog)
	w.C.Run()
	w.C.Kill()
}

// Spawn launches prog on every rank without running the engine — callers
// that orchestrate several phases drive the engine themselves. Each rank
// runs on its node's engine, so MPI jobs execute unchanged on a sharded
// cluster.
func (w *World) Spawn(prog func(r *Rank)) {
	for _, r := range w.ranks {
		r := r
		w.C.SpawnOn(fabric.NodeID(r.id), fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			r.proc = p
			prog(r)
		})
	}
}

// bcastKey identifies a demand-created multicast group context: one per
// (communicator, world root rank, message-size bucket), mirroring the
// paper's per-(communicator, root) group contexts while keeping the tree
// shape matched to the message size.
type bcastKey struct {
	comm   uint32
	root   int // world rank
	bucket uint8
}

// bcastGroup is a rank's view of one created group context.
type bcastGroup struct {
	gid   gm.GroupID
	recvd int // messages received on this group so far (root: sent)
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	port *gm.Port
	proc *sim.Proc

	unexpected  []*gm.RecvEvent
	sendHeld    [][]byte // encoded envelopes a posted send may still read
	sendSpare   [][]byte // envelope buffers free for reuse (encodeEnvelope)
	sendSeq     map[sendSeqKey]uint32
	bcastGroups map[bcastKey]*bcastGroup
	collGroups  map[uint32]gm.GroupID // comm id -> NIC collective group
	collTrees   map[uint32]bool       // comm ids whose multicast tree is installed
	world       *Comm
	splitEpochs map[uint32]int
}

type sendSeqKey struct {
	peer int
	comm uint32
	tag  int32
}

// ID reports the rank number; Size the world size.
func (r *Rank) ID() int   { return r.id }
func (r *Rank) Size() int { return r.w.Size() }

// Proc exposes the simulated process (for Sleep/Compute in programs).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now reports current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// node maps a rank to its network node.
func (r *Rank) node(rank int) fabric.NodeID { return fabric.NodeID(rank) }

func (r *Rank) nextSeq(comm uint32, peer int, tag int32) uint32 {
	if r.sendSeq == nil {
		r.sendSeq = make(map[sendSeqKey]uint32)
	}
	k := sendSeqKey{peer: peer, comm: comm, tag: tag}
	r.sendSeq[k]++
	return r.sendSeq[k]
}

// replenish hands a consumed eager message's bounce buffer back to the port
// and reposts its receive token, keeping the preposted pool full — this is
// why a NIC can accept and forward broadcast packets before the host
// process calls MPI_Bcast. The caller has copied out or decoded what it
// needs: ev and ev.Data are the port's again. Every event comes here kept
// (Rank.await), since one that does not match waits across later receives.
func (r *Rank) replenish(ev *gm.RecvEvent) {
	r.port.Release(ev)
	r.port.Provide(EagerMax + envelopeBytes)
}
