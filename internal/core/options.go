package core

import "repro/internal/gm"

// Option configures the multicast extension at install time.
type Option func(*gm.NIC, *Config)

// WithConfig replaces the extension's entire cost/mode configuration.
func WithConfig(cfg Config) Option {
	return func(_ *gm.NIC, c *Config) { *c = cfg }
}

// WithNacks enables fast recovery on the underlying GM firmware: sequence
// holes trigger negative acknowledgments instead of waiting out timers.
func WithNacks() Option {
	return func(n *gm.NIC, _ *Config) { n.Cfg.EnableNacks = true }
}

// WithAdaptiveRTO enables measured round-trip retransmission timeouts on
// the underlying GM firmware.
func WithAdaptiveRTO() Option {
	return func(n *gm.NIC, _ *Config) { n.Cfg.AdaptiveRTO = true }
}

// Install loads the multicast extension onto a GM NIC. The default
// configuration is DefaultConfig; options adjust it (and may flip
// firmware-level protocol switches on the NIC itself):
//
//	core.Install(nic, core.WithNacks(), core.WithAdaptiveRTO())
func Install(nic *gm.NIC, opts ...Option) *Ext {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(nic, &cfg)
	}
	return install(nic, cfg)
}
