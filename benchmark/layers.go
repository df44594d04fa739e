package main

import (
	"repro/internal/metrics"
)

// histP50 estimates a merged histogram's median from its log2 buckets: the
// lower bound of the bucket holding the middle observation.
func histP50(h metrics.HistVal) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := (h.Count - 1) / 2
	var seen uint64
	for i := 0; i < metrics.HistBuckets; i++ {
		seen += h.Buckets[i]
		if h.Buckets[i] > 0 && seen > rank {
			return float64(metrics.BucketLow(i))
		}
	}
	return float64(h.Max)
}

// pct is 100·part/whole, 0 when there is no whole.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// registryLayers turns the registry's growth over the timed section into
// the fabric/lanai/gm/core/coll metrics. makespanNs and nodes scale busy
// time into percentages of the model-clock makespan; root is the NIC whose
// own CPU share is reported beside the mean.
func registryLayers(L map[string]float64, d metrics.Snapshot, makespanNs float64, nodes, links int, root int) {
	sum := func(c, n string) float64 { return float64(d.CounterSum(c, n)) }

	L["fabric.injected"] = sum("net", "injected")
	L["fabric.delivered"] = sum("net", "delivered")
	L["fabric.dropped"] = sum("net", "dropped")
	L["fabric.link_busy_pct"] = pct(sum("net", "link_busy_ns"), makespanNs*float64(links))
	L["fabric.stall_us"] = (sum("net", "uplink_stall_ns") + sum("net", "switch_stall_ns")) / 1e3
	L["fabric.pfc_pauses"] = sum("net", "uplink_pfc_pauses") + sum("net", "switch_pfc_pauses")

	allNICs := makespanNs * float64(nodes)
	L["lanai.cpu_busy_pct"] = pct(sum("lanai", "cpu_busy_ns"), allNICs)
	L["lanai.root_cpu_busy_pct"] = pct(float64(d.Counter("lanai", root, "cpu_busy_ns")), makespanNs)
	L["lanai.sdma_busy_pct"] = pct(sum("lanai", "sdma_busy_ns"), allNICs)
	L["lanai.rdma_busy_pct"] = pct(sum("lanai", "rdma_busy_ns"), allNICs)
	L["lanai.host_events"] = sum("lanai", "host_events")
	L["lanai.buf_stall_us"] = (sum("lanai", "sendbuf_stall_ns") + sum("lanai", "recvbuf_stall_ns")) / 1e3
	L["lanai.rx_nobuffer"] = sum("lanai", "rx_nobuffer")
	var backlog int64
	for _, g := range d.Gauges {
		if g.Component == "lanai" && g.Name == "cpu_backlog_ns" && g.High > backlog {
			backlog = g.High
		}
	}
	L["lanai.cpu_backlog_max_us"] = float64(backlog) / 1e3

	L["gm.data_sent"] = sum("gm", "data_sent")
	L["gm.acks_sent"] = sum("gm", "acks_sent")
	L["gm.retransmits"] = sum("gm", "retransmits")
	L["gm.timeouts"] = sum("gm", "timeouts")
	L["gm.duplicates"] = sum("gm", "duplicates")
	L["gm.useful_pct"] = pct(sum("gm", "data_received"), sum("gm", "data_sent"))
	L["gm.token_wait_us_p50"] = histP50(d.HistMerged("gm", "token_wait_ns")) / 1e3

	L["core.mcast_sent"] = sum("core", "mcast_sent")
	L["core.mcast_forwarded"] = sum("core", "mcast_forwarded")
	L["core.header_rewrites"] = sum("core", "header_rewrites")
	L["core.forwards_before_full"] = sum("core", "forwards_before_full")
	L["core.acks_sent"] = sum("core", "mcast_acks_sent")
	L["core.retransmits"] = sum("core", "retransmits")
	L["core.timeouts"] = sum("core", "timeouts")
	L["core.ack_latency_us_p50"] = histP50(d.HistMerged("core", "ack_latency_ns")) / 1e3

	L["coll.barriers_done"] = sum("coll", "barriers_done")
	L["coll.reduces_done"] = sum("coll", "reduces_done")
	L["coll.retransmits"] = sum("coll", "retransmits")
}

// runtimeLayers reports the Go runtime's share of a repetition's timed
// section.
func runtimeLayers(L map[string]float64, h hostCost, events float64) {
	L["runtime.gc_cycles"] = float64(h.gcCycles)
	L["runtime.gc_pause_ms"] = h.gcPauseMs
	L["runtime.gc_cpu_pct"] = h.gcCPUPct
	if events > 0 {
		L["runtime.bytes_per_event"] = float64(h.runBytes) / events
		L["runtime.allocs_per_event"] = float64(h.runMallocs) / events
	}
}

// layers assembles a traced cluster repetition's per-layer metrics.
func (w *clusterWL) layers(h hostCost, out outcome) map[string]float64 {
	r, sc := w.r, w.sc
	L := map[string]float64{}
	events := float64(out.events)
	L["sim.events_fired"] = events
	if events > 0 {
		L["sim.ns_per_event"] = h.runS * 1e9 / events
	}
	if a := r.acct; a != nil {
		L["sim.pending_p50"] = a.pendingP50()
		L["sim.pending_max"] = float64(a.pendMax)
		L["node.events"] = float64(a.events[0])
		L["node.wall_s"] = float64(a.wallNs[0]) / 1e9
		L["node.share_pct"] = pct(float64(a.wallNs[0])/1e9, h.runS)
		L["fabric.switch_events"] = float64(a.events[1])
		L["fabric.wall_s"] = float64(a.wallNs[1]) / 1e9
		L["fabric.share_pct"] = pct(float64(a.wallNs[1])/1e9, h.runS)
		if a.events[0] > 0 {
			L["node.ns_per_event"] = float64(a.wallNs[0]) / float64(a.events[0])
		}
	}
	if st := w.shard; st.Shards > 1 {
		L["sim.shard_windows"] = float64(st.Windows - w.shard0.Windows)
		L["sim.shard_inline_windows"] = float64(st.Inline - w.shard0.Inline)
		L["sim.shard_cross_events"] = float64(st.CrossEvents - w.shard0.CrossEvents)
		var wait int64
		for i := range st.WaitNs {
			wait += st.WaitNs[i] - w.shard0.WaitNs[i]
		}
		L["sim.shard_busy_s"] = out.shardBusyS
		L["sim.shard_barrier_wait_pct"] = pct(float64(wait), float64(st.WallNs-w.shard0.WallNs)*float64(st.Shards))
	}

	registryLayers(L, w.diff, float64(out.makespanNs), sc.nodes, w.links, int(sc.groups[0].root))
	L["coll.op_virtual_us_p50"] = median(out.collUs)

	members := 0
	for _, t := range r.trees {
		members += t.Size()
	}
	L["core.install_wall_s"] = float64(r.installNs) / 1e9
	L["core.install_us_per_member"] = float64(r.installNs) / 1e3 / float64(members)
	L["core.install_virtual_us"] = r.installV.Micros()
	L["tree.build_wall_s"] = float64(r.treeNs) / 1e9
	L["tree.depth"] = float64(r.trees[0].Depth())
	L["tree.max_fanout"] = float64(r.trees[0].MaxFanout())
	L["cluster.build_wall_s"] = float64(r.buildNs) / 1e9
	L["cluster.build_us_per_node"] = float64(r.buildNs) / 1e3 / float64(sc.nodes)
	L["cluster.teardown_wall_s"] = w.teardownS

	var lag float64
	for _, l := range r.lag {
		lag = max(lag, l.Micros())
	}
	L["bench.open_loop_lag_us_max"] = lag
	runtimeLayers(L, h, events)
	return L
}
