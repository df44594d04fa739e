package main

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/workload"
)

// runTree prints the spanning trees the multicast schemes use for a system
// size across message sizes: the host-based binomial tree, and the
// NIC-based scheme's size-specific optimal trees (postal-model trees for
// single-packet messages, pipelining-aware low-fanout trees for
// multi-packet ones), with their postal parameters.
//
// With -churn N it instead renders the per-epoch trees of a churn run: a
// plan of N join/leave transitions generated from -seed, replayed through
// the coordinator's validation rules and tree.Incremental, one Graphviz
// DOT digraph per committed epoch. Edges kept from the previous epoch's
// tree are solid; edges the incremental rebuild made are dashed.
func runTree(args []string, stdout, stderr io.Writer) int {
	c := newCommand("tree", stderr)
	nodes := c.nodes(16)
	root := c.Int("root", 0, "root node")
	churn := c.Int("churn", 0, "render the per-epoch trees of a churn run with this many transitions")
	seed := c.seed()
	fanout := c.Int("fanout", 2, "fanout bound for the churn run's incremental trees")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *churn > 0 {
		if err := churnTrees(stdout, *nodes, *churn, *fanout, *seed); err != nil {
			return c.usage("%v", err)
		}
		return 0
	}
	if *root < 0 || *root >= *nodes {
		return c.usage("-root %d is not one of the %d nodes", *root, *nodes)
	}
	cfg := cluster.DefaultConfig(*nodes)
	members := make([]fabric.NodeID, *nodes)
	for i := range members {
		members[i] = fabric.NodeID(i)
	}
	r := fabric.NodeID(*root)
	bin := tree.Binomial(r, members)
	fmt.Fprintf(stdout, "Host-based binomial tree (%d nodes): depth=%d maxFanout=%d leaves=%d\n%s\n",
		*nodes, bin.Depth(), bin.MaxFanout(), len(bin.Leaves()), bin)
	for _, size := range []int{4, 512, 2048, 4096, 8192, 16384} {
		pp := cfg.Postal(size)
		tr := cfg.OptimalTree(r, members, size)
		fmt.Fprintf(stdout, "NIC-based tree for %d-byte messages: lambda=%v gap=%v ratio=%.2f depth=%d maxFanout=%d\n%s\n",
			size, pp.Lambda, pp.Gap, pp.Ratio(), tr.Depth(), tr.MaxFanout(), tr)
	}
	return 0
}

// churnTrees generates a churn plan, replays its transitions with the
// acceptance rules the membership coordinator applies, and writes one DOT
// digraph per epoch.
func churnTrees(w io.Writer, nodes, transitions, fanout int, seed int64) error {
	plan, err := workload.GenerateChurn(workload.ChurnSpec{Nodes: nodes, Transitions: transitions, Msgs: 1}, sim.NewRNG(seed))
	if err != nil {
		return err
	}
	root := fabric.NodeID(plan.Root)
	members := map[fabric.NodeID]bool{root: true}
	for _, m := range plan.Initial {
		members[fabric.NodeID(m)] = true
	}
	memberList := func() []fabric.NodeID {
		list := make([]fabric.NodeID, 0, len(members))
		for m := range members {
			list = append(list, m)
		}
		slices.Sort(list)
		return list
	}

	tr := tree.Incremental(nil, root, memberList(), fanout)
	writeDot(w, 0, "initial", nil, tr)
	epoch := 1
	for _, ev := range plan.Events {
		n := fabric.NodeID(ev.Node)
		// The coordinator's acceptance rules: no-op joins/leaves, root
		// departure, and would-empty leaves are rejected without a roll.
		if ev.Join == members[n] || (!ev.Join && (n == root || len(members) <= 2)) {
			continue
		}
		verb := "join"
		if ev.Join {
			members[n] = true
		} else {
			verb = "leave"
			delete(members, n)
		}
		next := tree.Incremental(tr, root, memberList(), fanout)
		writeDot(w, epoch, fmt.Sprintf("%s %d", verb, n), tr, next)
		tr = next
		epoch++
	}
	return nil
}

// writeDot emits one epoch's tree as a DOT digraph: edges that survive
// from the previous epoch solid, edges the rebuild created dashed.
func writeDot(w io.Writer, epoch int, cause string, prev, tr *tree.Tree) {
	fmt.Fprintf(w, "digraph epoch%d {\n", epoch)
	fmt.Fprintf(w, "  label=\"epoch %d (%s): %d members, depth %d, maxFanout %d\";\n",
		epoch, cause, tr.Size(), tr.Depth(), tr.MaxFanout())
	fmt.Fprintf(w, "  %d [shape=doublecircle];\n", tr.Root)
	for _, n := range tr.Nodes() {
		p, ok := tr.Parent(n)
		if !ok {
			continue
		}
		style := "dashed"
		if prev == nil {
			style = "solid" // the initial tree has no predecessor to differ from
		} else if q, ok := prev.Parent(n); ok && q == p {
			style = "solid"
		}
		fmt.Fprintf(w, "  %d -> %d [style=%s];\n", p, n, style)
	}
	fmt.Fprintln(w, "}")
}

// runTrace runs one NIC-based multicast with protocol tracing and prints
// the packet timeline: every transmit, receive, NIC-based forward,
// retransmission and host delivery with its virtual timestamp. With -loss
// it also shows the per-child recovery machinery at work.
func runTrace(args []string, stdout, stderr io.Writer) int {
	c := newCommand("trace", stderr)
	nodes, size, loss, seed := c.nodes(8), c.size(4096), c.loss(), c.seed()
	lanes := c.Bool("lanes", false, "render per-node lanes instead of a flat timeline")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *nodes < 2 {
		return c.usage("-nodes %d: a multicast needs at least 2 nodes", *nodes)
	}
	rec := trace.NewRecorder()
	cl := cluster.New(*nodes, cluster.WithTrace(rec), cluster.WithLossRate(*loss), cluster.WithSeed(*seed))
	ports := cl.OpenPorts(1)
	tr := cl.Cfg.OptimalTree(0, cl.Members(), *size)
	cl.InstallGroup(5, tr, 1, 1)
	fmt.Fprintf(stdout, "NIC-based multicast of %d bytes over %d nodes (tree depth %d, fanout %d)\n\n",
		*size, *nodes, tr.Depth(), tr.MaxFanout())
	for n := 1; n < *nodes; n++ {
		cl.Eng.Spawn("dest", func(p *sim.Proc) {
			ports[n].Provide(*size)
			ports[n].Recv(p)
		})
	}
	msg := make([]byte, *size)
	cl.Eng.Spawn("root", func(p *sim.Proc) {
		cl.Nodes[0].Ext.McastSync(p, ports[0], gm.GroupID(5), msg)
	})
	cl.Run()
	cl.Eng.Kill()
	if *lanes {
		rec.WriteLanes(stdout)
	} else {
		rec.WriteTimeline(stdout)
	}
	fmt.Fprintf(stdout, "\n%d events in %v of virtual time\n", rec.Len(), cl.Eng.Now())
	return 0
}

// runTraffic drives the simulated cluster with synthetic traffic patterns
// and reports fabric-level behaviour: latencies, goodput, retransmissions,
// NIC processor utilization. It explores the substrate itself
// (contention, hotspots, loss recovery), apart from the paper's multicast
// microbenchmarks.
//
//	traffic -nodes 16 -pattern hotspot -messages 2000 -size 4096
//	traffic -nodes 64 -pattern uniform -loss 0.01
func runTraffic(args []string, stdout, stderr io.Writer) int {
	c := newCommand("traffic", stderr)
	nodes := c.nodes(16)
	pattern := c.String("pattern", "uniform", "traffic pattern: uniform, permutation, hotspot, neighbor")
	messages := c.Int("messages", 1000, "number of messages")
	size := c.size(1024)
	dist := c.String("dist", "fixed", "size distribution: fixed, bimodal, uniformsize")
	gapUs := c.Float64("gap", 5, "mean per-source injection gap in µs")
	loss, seed := c.loss(), c.seed()
	if code, ok := c.parse(args); !ok {
		return code
	}
	cfg := cluster.DefaultConfig(*nodes)
	cfg.LossRate = *loss
	cfg.Seed = *seed
	rep, err := workload.Run(cfg, workload.Spec{
		Pattern:  workload.Pattern(*pattern),
		Messages: *messages,
		MeanSize: *size,
		Sizes:    workload.SizeDist(*dist),
		MeanGap:  sim.Micros(*gapUs),
	})
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", c.Name(), err)
		return 1
	}
	p := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	p("workload: %d nodes, %s pattern, %d messages, %s sizes (mean %dB), %.0f%% loss",
		*nodes, *pattern, rep.Messages, *dist, *size, *loss*100)
	p("  elapsed (virtual):   %v", rep.Elapsed)
	p("  goodput:             %.1f MB/s aggregate", rep.ThroughMB)
	p("  message latency:     mean %.2fµs, max %.2fµs", rep.MeanLatencyUs, rep.MaxLatencyUs)
	p("  retransmissions:     %d", rep.Retransmits)
	p("  rx-buffer drops:     %d", rep.RxNoBuffer)
	p("  busiest NIC CPU:     %.1f%% utilized", rep.MaxCPUUtil*100)
	return 0
}
