package cluster

import (
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Option adjusts a cluster configuration before assembly. Options are
// applied in order on top of DefaultConfig(n), so later options override
// earlier ones; WithConfig replaces the whole configuration and is
// normally first when used at all.
type Option func(*Config)

// WithConfig replaces the entire configuration (the node count passed to
// New still wins).
func WithConfig(cfg *Config) Option {
	return func(c *Config) { *c = *cfg }
}

// WithMutate applies an arbitrary configuration mutation — the escape
// hatch for experiment sweeps that perturb one calibrated cost.
func WithMutate(f func(*Config)) Option {
	return func(c *Config) {
		if f != nil {
			f(c)
		}
	}
}

// WithFabric selects the interconnect backend from a preset —
// myrinet.Default(), clos.Default(), or a preset with edited fields, its
// link parameters among them:
//
//	cluster.New(256, cluster.WithFabric(clos.Default()))
func WithFabric(fc fabric.Config) Option {
	return func(c *Config) { c.Fabric = fc }
}

// WithMetrics wires the registry through every layer of every node:
// fabric link counters, LANai busy time and buffer-pool occupancy, GM
// protocol counters, multicast forwarding and collective statistics.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithShards partitions the cluster over n engines for conservative
// parallel execution. Output is byte-identical to the serial engine for
// the same seed; n is clamped to the node count, and n <= 1 selects the
// classic serial engine. Incompatible with WithLossRate and WithTrace
// (build panics with a sentinel error).
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithSeed sets the simulation RNG seed.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithLossRate sets the per-link packet-loss probability.
func WithLossRate(rate float64) Option {
	return func(c *Config) { c.LossRate = rate }
}

// WithTrace attaches a trace recorder to every NIC.
func WithTrace(tr *trace.Recorder) Option {
	return func(c *Config) { c.Trace = tr }
}

// WithNacks enables fast recovery (negative acknowledgments) in the GM
// firmware of every node.
func WithNacks() Option {
	return func(c *Config) { c.GM.EnableNacks = true }
}

// WithAdaptiveRTO enables measured round-trip retransmission timeouts in
// the GM firmware of every node.
func WithAdaptiveRTO() Option {
	return func(c *Config) { c.GM.AdaptiveRTO = true }
}

// WithoutExtension skips installing the multicast extension — the
// stock-GM baseline.
func WithoutExtension() Option {
	return func(c *Config) { c.noExt = true }
}

// WithAckEconomy enables the whole ack-economy stack at once: cumulative
// acks every `every` packets, held at most GM.AckDelay (0 picks the
// default bound), whichever comes first; piggybacking of those acks on
// reverse-direction data frames; and NIC tree ack aggregation, interior
// NICs forwarding one subtree-floor aggregate upward so the root sees
// O(fanout) ack events instead of O(N). The coll engine's tree allgather
// reuses `every` as its chunk window. every <= 1 is a no-op (the
// timeline-pinned default).
func WithAckEconomy(every int) Option {
	return func(c *Config) {
		if every <= 1 {
			return
		}
		c.GM.AckEvery = every
		c.GM.PiggybackAcks = true
		c.Mcast.AggregateAcks = true
	}
}
