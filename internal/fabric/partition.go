package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Plan is a deterministic assignment of fabric vertices to shards, plus the
// conservative-synchronization lookahead the assignment admits. Every event
// of a vertex fires on its shard's engine, so a packet handoff across a cut
// link is the only cross-shard interaction — and it cannot take effect
// sooner than that link's latency after it is sent, which is exactly the
// window width a conservative parallel run may execute without
// synchronizing.
type Plan struct {
	Shards int
	// Lookahead is the minimum cut-link latency over the whole partition —
	// the width of the old lockstep synchronization window, kept as the
	// conservative floor and for reporting.
	Lookahead sim.Time
	// PairLookahead[s][d] is the minimum latency of any cut link from a
	// shard-s vertex to a shard-d vertex, or 0 when no such link exists.
	// The adaptive coordinator turns it into per-shard window bounds
	// (sim.NewShardedMatrix), so a pair joined only by high-latency links —
	// or by no links at all — no longer drags every shard down to the
	// single global minimum.
	PairLookahead [][]sim.Time
	// VertexShard maps vertex index -> shard; HostShard maps host NodeID ->
	// shard (a convenience view of the same assignment).
	VertexShard []int
	HostShard   []int
	// CutLinks counts directed links crossing shards; CutLatency sums their
	// latencies — the quantity the lookahead-maximizing objective drives
	// up per link by preferring to cut slow links.
	CutLinks   int
	CutLatency sim.Time
}

// Partition assigns the fabric's vertices to the given number of shards
// with a deterministic greedy heuristic that places cuts on the
// highest-latency links:
//
//   - Hosts are split into contiguous balanced blocks (shard =
//     host*shards/hosts). Topology builders lay hosts out so that
//     consecutive IDs share a leaf switch (and, in the fat tree, a pod), so
//     contiguous blocks keep the short host<->leaf links interior.
//   - Each switch then joins a shard scored over its already-assigned
//     neighbors, processed in BFS-from-hosts order so leaves commit before
//     spines. The score is the total inverse link latency into the shard
//     (the fast links pull hardest, so cuts land on the slowest links,
//     widening the conservative windows); ties break toward the shard with
//     fewer vertices (balance), then rotate by vertex index. On a fabric
//     with uniform link latency the score is proportional to the link
//     count, so it degenerates to min-cut (modulo tie-breaking).
//
// The request is clamped to [1, hosts]: more shards than hosts would leave
// empty engines (the shard-count-exceeds-nodes edge case degenerates to one
// host per shard).
//
// The heuristic is topology-agnostic: it sees only the vertex/link graph,
// so any backend built through the fabric builder API shards the same way.
// Where the cuts fall never changes event order, only window widths.
func (n *Network) Partition(shards int) Plan {
	if shards < 1 {
		shards = 1
	}
	if h := len(n.hosts); shards > h {
		shards = h
	}
	plan := Plan{
		Shards:      shards,
		VertexShard: make([]int, len(n.verts)),
		HostShard:   make([]int, len(n.hosts)),
	}
	assigned := make([]bool, len(n.verts))
	vcount := make([]int, shards) // vertices per shard, the balance tie-break
	var frontier []*Vertex
	for i := range n.hosts {
		s := i * shards / len(n.hosts)
		plan.HostShard[i] = s
		hv := n.hosts[i].up.from
		plan.VertexShard[hv.idx] = s
		assigned[hv.idx] = true
		vcount[s]++
		frontier = append(frontier, hv)
	}

	// BFS from the hosts so each switch is placed after the neighbors that
	// anchor it; weight[s] scores links into already-assigned members of s.
	weight := make([]int64, shards)
	for len(frontier) > 0 {
		var next []*Vertex
		for _, v := range frontier {
			for _, l := range v.out {
				w := l.to
				if assigned[w.idx] {
					continue
				}
				for s := range weight {
					weight[s] = 0
				}
				for _, wl := range w.out {
					if assigned[wl.to.idx] {
						// Inverse-latency weight: joining the shard the fast
						// links lead to keeps them interior, so the links
						// that do get cut are the slow ones — which is what
						// widens the windows (lookahead is the minimum
						// latency among cut links). A zero-latency link
						// weighs ~2^40: it must never be cut, since it would
						// zero the lookahead.
						lat := int64(wl.params.Latency)
						if lat < 1 {
							lat = 1
						}
						weight[plan.VertexShard[wl.to.idx]] += (int64(1) << 40) / lat
					}
				}
				best := int64(0)
				var ties []int
				for s, sc := range weight {
					if sc > best {
						best = sc
						ties = ties[:0]
					}
					if sc == best {
						ties = append(ties, s)
					}
				}
				if len(ties) > 1 {
					// Balance tie-break: keep only the least-loaded tied
					// shards, then rotate among those.
					minC := vcount[ties[0]]
					for _, s := range ties[1:] {
						if vcount[s] < minC {
							minC = vcount[s]
						}
					}
					kept := ties[:0]
					for _, s := range ties {
						if vcount[s] == minC {
							kept = append(kept, s)
						}
					}
					ties = kept
				}
				pick := ties[w.idx%len(ties)]
				plan.VertexShard[w.idx] = pick
				vcount[pick]++
				assigned[w.idx] = true
				next = append(next, w)
			}
		}
		frontier = next
	}
	// Disconnected leftovers (none in the standard topologies) go to 0.

	plan.PairLookahead = make([][]sim.Time, shards)
	for s := range plan.PairLookahead {
		plan.PairLookahead[s] = make([]sim.Time, shards)
	}
	for _, l := range n.links {
		s, d := plan.VertexShard[l.from.idx], plan.VertexShard[l.to.idx]
		if s == d {
			continue
		}
		if l.params.Latency <= 0 {
			panic(fmt.Sprintf("fabric: cut link %v has non-positive latency %v — conservative sync needs positive lookahead",
				l, l.params.Latency))
		}
		plan.CutLinks++
		plan.CutLatency += l.params.Latency
		if plan.Lookahead == 0 || l.params.Latency < plan.Lookahead {
			plan.Lookahead = l.params.Latency
		}
		if cur := plan.PairLookahead[s][d]; cur == 0 || l.params.Latency < cur {
			plan.PairLookahead[s][d] = l.params.Latency
		}
	}
	if plan.Lookahead == 0 {
		// No cut links (single shard): any positive window works; one link
		// latency keeps window sizing uniform with the multi-shard case.
		plan.Lookahead = n.params.Latency
	}
	return plan
}

// ApplyPlan binds the fabric to one engine per shard: every link facility
// moves to the engine firing its reservations (the shard of the link's
// source vertex), every link learns the shard of its to-vertex, and
// per-shard transit pools and cross-shard mailboxes replace the
// single-engine ones. engines[0] must be the engine the network was built
// on; ApplyPlan must run before any traffic. Each engine is grown to the
// fabric's domain space so tiebreak keys agree with a serial run no matter
// where an event fires.
func (n *Network) ApplyPlan(plan Plan, engines []*sim.Engine) {
	if len(engines) != plan.Shards {
		panic(fmt.Sprintf("fabric: plan wants %d shards, got %d engines", plan.Shards, len(engines)))
	}
	if engines[0] != n.eng {
		panic("fabric: ApplyPlan engines[0] must be the construction engine")
	}
	if len(plan.VertexShard) != len(n.verts) {
		panic("fabric: plan does not match this fabric")
	}
	for _, v := range n.verts {
		v.shard = plan.VertexShard[v.idx]
	}
	for _, e := range engines {
		e.GrowDomains(len(n.verts))
	}
	for _, l := range n.links {
		if s := l.from.shard; s != 0 {
			l.fac.Rebind(engines[s])
		}
		l.toShard = int32(l.to.shard)
	}
	n.shards = plan.Shards
	n.lookahead = plan.Lookahead
	n.sh = make([]*shardState, plan.Shards)
	for s := range n.sh {
		n.sh[s] = &shardState{
			id:  s,
			eng: engines[s],
			out: make([][]crossMsg, plan.Shards),
		}
	}
	n.bindShards()
}

// HostDomain reports the tiebreak-key domain of a host's fabric vertex —
// the domain every event "on" that node (NIC firmware, host processes)
// should be owned by, so keys stay shard-stable.
func (n *Network) HostDomain(id NodeID) uint32 { return n.hosts[id].up.from.domain }

// HostShard reports the shard a host's vertex is assigned to (0 before any
// ApplyPlan).
func (n *Network) HostShard(id NodeID) int { return n.hosts[id].up.from.shard }

// Shards reports how many shards the fabric is partitioned into (1 before
// ApplyPlan).
func (n *Network) Shards() int { return n.shards }

// LinkNow reports the virtual time at the given link — the clock of the
// engine that fires the link's traversal events. Fault-injection hooks
// (DropFn and friends) run inside those events and must read this clock,
// not some other shard's: within a synchronization window the shards'
// clocks legitimately differ.
func (n *Network) LinkNow(l *Link) sim.Time { return n.sh[l.from.shard].eng.Now() }

// Lookahead reports the partition's synchronization window width.
func (n *Network) Lookahead() sim.Time { return n.lookahead }
