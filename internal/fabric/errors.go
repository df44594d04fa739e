package fabric

import "errors"

// Sentinel errors for API misuse of the fabric layer. Misconfiguration is
// fatal (the fabric cannot limp along without its randomness source), so
// these surface either as returned errors from the validating setters or
// as panics carrying error values: recover the value and test it with
// errors.Is. They live here — not in a backend or in cluster — because
// every fabric shares the same validation rules.
var (
	// ErrLossRateWithoutRNG reports enabling stochastic loss on a fabric
	// that has no randomness source installed (SetRNG).
	ErrLossRateWithoutRNG = errors.New("fabric: LossRate set without SetRNG")
	// ErrBadLossRate reports a loss probability outside [0, 1].
	ErrBadLossRate = errors.New("fabric: loss rate outside [0, 1]")

	// ErrShardsWithLossRate reports a sharded build with stochastic loss
	// enabled: the single RNG's draw order would make cross-shard event
	// order observable, breaking serial/sharded equivalence.
	ErrShardsWithLossRate = errors.New("fabric: stochastic loss requires the serial engine (shared RNG draw order)")
	// ErrShardsWithTrace reports a sharded build with a trace recorder
	// attached: the shared recorder would observe cross-shard order.
	ErrShardsWithTrace = errors.New("fabric: tracing requires the serial engine (shared trace recorder)")
	// ErrShardsStateful reports installing a stateful fault-injection hook
	// (one whose decisions depend on cross-packet state: stochastic drops,
	// Gilbert-Elliott, every-nth duplication or reordering) on a sharded
	// fabric. Hook callbacks run on whichever shard owns the link, so a
	// shared RNG or counter would be both racy and nondeterministic. Pure
	// time-window rules remain available.
	ErrShardsStateful = errors.New("fabric: stateful fault injection requires the serial engine")
)
