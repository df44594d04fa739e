package coll

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
)

// Combine-and-forward reduction over the group's preposted multicast
// tree: each NIC combines its children's vectors with its own host's
// contribution — paying the slow LANai's per-element arithmetic cost —
// and forwards one combined vector to its parent. The root's host
// receives the result; Allreduce then multicasts it back down.

// ReduceOp is a NIC-computable combining operation. Vectors are int64s: the
// LANai has no floating-point unit, which is exactly the trade-off the
// companion reduction paper ("NIC-Based Reduction in Myrinet Clusters: Is It
// Beneficial?") investigates.
type ReduceOp uint8

const (
	OpSum ReduceOp = iota + 1
	OpMin
	OpMax
)

// Apply combines two elements under the operator.
func (op ReduceOp) Apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		panic(fmt.Errorf("%w: unknown op %d", ErrBadReduce, op))
	}
}

// reduceInst accumulates one reduction instance at one NIC.
type reduceInst struct {
	op   ReduceOp
	acc  []int64
	got  int // contributions combined (children + own host)
	need int
}

// Reduce contributes this node's vector to a reduction over the group's
// tree and, at the root, blocks until the combined result arrives.
// Non-roots return nil as soon as their contribution is posted (their
// buffer is immediately reusable, like MPI_Reduce). All members must call
// Reduce with equal-length vectors and the same op, in the same order.
// Vectors must fit one packet (MTU/8 elements).
func (e *Engine) Reduce(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) []int64 {
	e.PostReduce(proc, port, id, vec, op)
	if !e.isGroupRoot(id) {
		return nil
	}
	return DecodeVec(awaitEvent(proc, port, id, "reduce", true).Data)
}

// PostReduce contributes without blocking — the split entry point for
// callers multiplexing a port. The root observes the result as a group
// event carrying the encoded vector.
func (e *Engine) PostReduce(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) {
	if port.NIC() != e.nic {
		panic(fmt.Errorf("%w: Reduce", core.ErrWrongNIC))
	}
	if len(vec)*8 > e.nic.Cfg.MTU {
		panic(fmt.Errorf("%w: vector of %d elements exceeds one packet", ErrBadReduce, len(vec)))
	}
	proc.Compute(e.nic.Cfg.HostSendPost)
	nic := e.nic
	nic.HW.HostPost(func() {
		nic.HW.CPUDo(nic.Cfg.SendEventCost, func() {
			if _, _, _, _, ok := e.treeView(id); !ok {
				panic(fmt.Errorf("%w: Reduce on group %d at %v", core.ErrNoSuchGroup, id, nic.ID()))
			}
			g := e.groupFor(id)
			g.redSeq++
			g.contribute(g.redSeq, op, vec)
		})
	})
}

// isGroupRoot reports whether this NIC roots the group's tree. The group
// table is firmware state, but tree placement is static and known to the
// host that installed it; this helper models that knowledge.
func (e *Engine) isGroupRoot(id gm.GroupID) bool {
	root, _, _, _, ok := e.treeView(id)
	return ok && root == e.nic.ID()
}

// contribute merges one vector into the instance's accumulator, charging
// the LANai's per-element cost, and forwards when complete.
func (g *Group) contribute(seq uint32, op ReduceOp, vec []int64) {
	e := g.eng
	root, parent, children, port, ok := e.treeView(g.id)
	if !ok {
		e.m.notMemberDrops.Inc()
		return
	}
	st := g.red[seq]
	if st == nil {
		st = &reduceInst{op: op, need: len(children) + 1}
		if g.red == nil {
			g.red = make(map[uint32]*reduceInst)
		}
		g.red[seq] = st
	}
	if st.op != op {
		panic(fmt.Errorf("%w: op mismatch on group %d instance %d", ErrBadReduce, g.id, seq))
	}
	cost := sim.Time(len(vec)) * e.cfg.ReduceElemCost
	e.queues().combines.do(e.nic, cost, combineTask{g, st, seq, op, vec, cost, root, parent, port})
}

// combineTask is one contribution awaiting its turn on the LANai, with the
// tree neighborhood it was made under.
type combineTask struct {
	g            *Group
	st           *reduceInst
	seq          uint32
	op           ReduceOp
	vec          []int64
	cost         sim.Time
	root, parent fabric.NodeID
	port         gm.PortID
}

func (t combineTask) run() {
	g, st, vec := t.g, t.st, t.vec
	e := g.eng
	if st.acc == nil {
		st.acc = append([]int64(nil), vec...)
	} else {
		if len(vec) != len(st.acc) {
			panic(fmt.Errorf("%w: length mismatch on group %d", ErrBadReduce, g.id))
		}
		for i := range st.acc {
			st.acc[i] = t.op.Apply(st.acc[i], vec[i])
		}
	}
	st.got++
	e.m.reduceCombines.Inc()
	e.m.combineNs.Observe(int64(t.cost))
	if st.got < st.need {
		return
	}
	delete(g.red, t.seq)
	if t.root == e.nic.ID() {
		e.m.reducesDone.Inc()
		e.nic.Port(t.port).PostGroupEvent(&gm.RecvEvent{Group: g.id, Data: EncodeVec(st.acc)})
		return
	}
	e.m.reduceSent.Inc()
	e.m.bytesForwarded.Add(uint64(8 * len(st.acc)))
	g.send(t.parent, &gm.Frame{Kind: gm.KindReduce, MsgID: uint64(t.seq), Offset: int(st.op), Payload: EncodeVec(st.acc)})
}

// rxReduce handles a child's combined contribution.
func (e *Engine) rxReduce(src fabric.NodeID, fr *gm.Frame) {
	nic := e.nic
	buf, ok := nic.HW.RecvBufs.TryAcquire()
	if !ok {
		nic.HW.CountRxNoBuffer()
		return
	}
	nic.HW.CPUDo(nic.Cfg.RecvProcCost, func() {
		defer buf.Release()
		_, _, children, _, ok := e.treeView(fr.Group)
		if !ok {
			e.m.notMemberDrops.Inc()
			return
		}
		g := e.groupFor(fr.Group)
		if !g.accept(src, fr) {
			return
		}
		if !slices.Contains(children, src) {
			e.m.duplicates.Inc() // not our child under the current view
			return
		}
		g.contribute(uint32(fr.MsgID), ReduceOp(fr.Offset), DecodeVec(fr.Payload))
	})
}

// Allreduce reduces to the root over the tree, then multicasts the result
// back down it: every member returns the combined vector. The caller must
// have preposted a receive token (>= 8*len(vec) bytes) on non-root
// members for the downward multicast.
func (e *Engine) Allreduce(proc *sim.Proc, port *gm.Port, id gm.GroupID, vec []int64, op ReduceOp) []int64 {
	if res := e.Reduce(proc, port, id, vec, op); res != nil {
		e.ext.Mcast(proc, port, id, EncodeVec(res))
		return res
	}
	return DecodeVec(awaitEvent(proc, port, id, "allreduce", true).Data)
}
