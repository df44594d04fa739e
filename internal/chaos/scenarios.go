package chaos

// The scenario library. Fault windows are fractions of the fault-free
// baseline's measured span (Fault.At): the workload starts streaming at
// t=0, so At(0.3)..At(1.5) always brackets live traffic and the early
// recovery tail, whether a run takes a millisecond on the Myrinet fabric
// or a fraction of that on a Clos backend. All windows close long before
// the run deadline, so a correct protocol always has room to recover; a
// run that still misses the deadline has a recovery bug, not a tight
// schedule.

// Library returns the multicast scenario set, in fixed order. Campaigns
// run all of them unless filtered.
func Library() []Scenario {
	return []Scenario{
		{
			Name: "root-link-outage",
			Desc: "root's host link dark through most of the stream; every packet and ack in transit dies",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("root-link", f.At(0.3), f.At(1.3),
					MatchHostLink(f.Root))
			},
		},
		{
			Name: "interior-kill",
			Desc: "interior forwarding node isolated through the second half of the stream; its whole subtree starves",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("interior-node", f.At(0.3), f.At(1.5),
					MatchNode(f.InteriorNode()))
			},
		},
		{
			Name: "switch-outage",
			Desc: "the root's switch black mid-stream — a full-fabric blackout on single-switch clusters",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("root-switch", f.At(0.4), f.At(1.2),
					MatchSwitch(f.RootSwitch()))
			},
		},
		{
			Name: "burst-loss",
			Desc: "Gilbert–Elliott bursty channel on all links (fixed-timeout recovery)",
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name:     "burst-loss-nacks",
			Desc:     "same bursty channel with nack fast recovery and adaptive RTO",
			Nacks:    true,
			Adaptive: true,
			Inject: func(f *Fault) {
				f.Inj.GilbertElliott("ge-all", 0.02, 0.25, 0.001, 0.5, MatchAll)
			},
		},
		{
			Name: "dup-storm",
			Desc: "every 3rd packet of any kind delivered twice for the whole run",
			Inject: func(f *Fault) {
				f.Inj.Duplicate("dup3", 0, 0, 3, MatchAll)
			},
		},
		{
			Name:  "reorder",
			Desc:  "every 5th data packet held back, overtaken by its successors",
			Nacks: true,
			Inject: func(f *Fault) {
				f.Inj.Reorder("hold5", 0, 0, 5, f.At(0.025), MatchData)
			},
		},
		{
			Name: "leaf-nic-pause",
			Desc: "a leaf NIC reloads firmware through the second half of the stream, discarding all arrivals",
			Inject: func(f *Fault) {
				leaf := f.LeafNode()
				f.Inj.PauseNIC(f.Cluster.Nodes[leaf].HW, f.At(0.3), f.At(1.5))
			},
		},
		{
			Name: "root-nic-pause",
			Desc: "the root NIC goes deaf mid-stream; every ack in flight is discarded",
			Inject: func(f *Fault) {
				f.Inj.PauseNIC(f.Cluster.Nodes[f.Root].HW, f.At(0.3), f.At(1.2))
			},
		},
		{
			Name: "ack-loss",
			Desc: "all acknowledgment and nack frames dropped through the stream's tail; data flows untouched",
			Inject: func(f *Fault) {
				f.Inj.DropWindow("acks", f.At(0.3), f.At(1.5), MatchAcks)
			},
		},
		{
			Name:  "cascade",
			Desc:  "interior node isolated while the fabric duplicates and reorders traffic",
			Nacks: true,
			Inject: func(f *Fault) {
				f.Inj.DropWindow("interior-node", f.At(0.4), f.At(1.1),
					MatchNode(f.InteriorNode()))
				f.Inj.Duplicate("dup7", 0, 0, 7, MatchAll)
				f.Inj.Reorder("hold9", 0, 0, 9, f.At(0.015), MatchData)
			},
		},
	}
}
