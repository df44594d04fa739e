package sim

import "math/rand"

// RNG is the simulation's single source of randomness. All stochastic
// behaviour (packet loss, process skew, workload generation) draws from
// one seeded stream so a run is reproducible from its seed.
type RNG struct {
	seed int64
	src  *rand.Rand // built on the first draw; nil until then
}

// NewRNG returns a deterministic generator for the given seed. The ~5 KB
// source behind it is built on the first draw, so a generator that is
// never drawn from — every loss-free cluster's — costs a few bytes; the
// stream is the same, since the same seed builds the same source.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// r returns the seeded source, building it on first use.
func (g *RNG) r() *rand.Rand {
	if g.src == nil {
		g.src = rand.New(rand.NewSource(g.seed))
	}
	return g.src
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r().Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r().Intn(n) }

// Int63n returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Int63n(n int64) int64 { return g.r().Int63n(n) }

// Duration returns a uniform Time in [0, d).
func (g *RNG) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(g.r().Int63n(int64(d)))
}

// SymmetricDuration returns a uniform Time in [-d/2, +d/2), the paper's
// skew distribution ("a random number between the negative half and the
// positive half of a maximum value").
func (g *RNG) SymmetricDuration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(g.r().Int63n(int64(d))) - d/2
}

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r().Float64() < p
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r().Perm(n) }
