// Package mpi is an MPICH-GM-like message-passing layer over the GM
// substrate, cut to what the paper's figures call. There is one
// communicator, MPI_COMM_WORLD, and a Rank carries its operations itself:
// tagged point-to-point sends with MPICH-GM's eager protocol, up to 16,287
// bytes (a larger message or collective exchange is refused with
// ErrExceedsEager); MPI_Bcast in both its traditional
// host-based binomial form and the modified, NIC-based-multicast form with
// demand-driven group creation (Figure 4, and Figures 6 and 7 under skew);
// and MPI_Barrier, AllreduceVec and AllgatherVec, each host-based or on the
// NIC collective engine (the collective sweeps).
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// EagerMax is the largest eager-mode message, the MPICH-GM constant the
// paper cites, and the largest message this layer sends: the paper's NIC
// multicast serves broadcasts up to it, and MPICH-GM's remote-DMA
// rendezvous above it is not modelled.
const EagerMax = 16287

// mpiPort is the GM port number the MPI library opens on every node.
const mpiPort gm.PortID = 2

// eagerTokens is how many eager receive buffers the library preposts per
// rank and keeps replenished.
const eagerTokens = 128

// Internal tags (user tags must be >= 0). They ride the wire, so each
// keeps its value.
const (
	tagBarrier   int32 = -100
	tagBcast     int32 = -101
	tagCtl       int32 = -102
	tagAllreduce int32 = -106
	tagAllgather int32 = -107
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
			bcastGroups: make(map[bcastKey]gm.GroupID),
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

// Run spawns prog as one simulated process per rank, each on its node's
// engine (so MPI jobs execute unchanged on a sharded cluster), and drives
// the simulation until the job goes quiet. The engines are left intact
// for inspection; Kill releases any still-parked processes.
func (w *World) Run(prog func(r *Rank)) {
	for _, r := range w.ranks {
		w.C.SpawnOn(fabric.NodeID(r.id), fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			r.proc = p
			prog(r)
		})
	}
	w.C.Run()
	w.C.Kill()
}

// bcastKey identifies a demand-created multicast group context: one per
// (root rank, message-size bucket), mirroring the paper's per-root group
// contexts while keeping the tree shape matched to the message size.
type bcastKey struct {
	root   int
	bucket uint8
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	port *gm.Port
	proc *sim.Proc

	unexpected  []*gm.RecvEvent
	sendHeld    [][]byte                // encoded envelopes a posted send may still read
	sendSpare   [][]byte                // envelope buffers free for reuse (encodeEnvelope)
	bcastGroups map[bcastKey]gm.GroupID // the group contexts created so far
	collGroup   gm.GroupID              // the NIC collective group, 0 until first used
	collTree    bool                    // whether collGroup's multicast tree is installed
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

// nodes returns every rank's node in rank order, in a fresh slice.
func (r *Rank) nodes() []fabric.NodeID {
	out := make([]fabric.NodeID, r.Size())
	for i := range out {
		out[i] = r.node(i)
	}
	return out
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
