// Package workload generates synthetic traffic patterns for driving the
// simulated cluster: the classical HPC communication patterns (uniform
// random, permutation, hotspot, nearest-neighbor halo, broadcast storm)
// plus message-size distributions. The benchmark harness reproduces the
// paper's microbenchmarks; this package exists for whole-fabric studies
// (`mcast traffic`) — utilization, contention, and the multicast schemes
// under background load.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Message is one point-to-point transfer the generator asks for.
type Message struct {
	Src, Dst int
	Size     int
	// At is the injection time offset from the workload's start.
	At sim.Time
}

// Pattern names a traffic pattern.
type Pattern string

const (
	// Uniform sends each message between a uniformly random pair.
	Uniform Pattern = "uniform"
	// Permutation fixes a random one-to-one mapping src->dst.
	Permutation Pattern = "permutation"
	// Hotspot directs most traffic at one node.
	Hotspot Pattern = "hotspot"
	// Neighbor sends to (rank+1) mod n — a 1-D halo exchange.
	Neighbor Pattern = "neighbor"
	// Churn interleaves multicast traffic from a fixed root with a
	// deterministic join/leave schedule — the dynamic-membership workload.
	// Generated via GenerateChurn (it needs a group schedule, not a
	// point-to-point message list).
	Churn Pattern = "churn"
)

// Patterns lists the supported patterns.
func Patterns() []Pattern { return []Pattern{Uniform, Permutation, Hotspot, Neighbor, Churn} }

// SizeDist names a message-size distribution.
type SizeDist string

const (
	// Fixed uses MeanSize for every message.
	Fixed SizeDist = "fixed"
	// Bimodal mixes small control messages with large bulk ones, the
	// classic HPC mix (90% small, 10% large around 16x the mean).
	Bimodal SizeDist = "bimodal"
	// UniformSize draws uniformly from [1, 2*MeanSize).
	UniformSize SizeDist = "uniformsize"
)

// Spec configures a workload.
type Spec struct {
	Nodes    int
	Pattern  Pattern
	Messages int
	// MeanSize is the target mean message size in bytes.
	MeanSize int
	Sizes    SizeDist
	// MeanGap is the mean inter-injection gap per source; injections are
	// spread uniformly in [0, 2*MeanGap).
	MeanGap sim.Time
	// HotFraction (Hotspot only) is the fraction of traffic aimed at
	// node 0; the rest is uniform. Defaults to 0.8 when zero.
	HotFraction float64
}

// Generate produces the message list for a spec, deterministically from
// the RNG.
func Generate(spec Spec, rng *sim.RNG) ([]Message, error) {
	if spec.Nodes < 2 {
		return nil, fmt.Errorf("workload: need at least 2 nodes, have %d", spec.Nodes)
	}
	if spec.Messages <= 0 {
		return nil, fmt.Errorf("workload: nonpositive message count %d", spec.Messages)
	}
	if spec.MeanSize <= 0 {
		spec.MeanSize = 1024
	}
	if spec.Sizes == "" {
		spec.Sizes = Fixed
	}
	hot := spec.HotFraction
	if hot == 0 {
		hot = 0.8
	}

	if spec.Pattern == Churn {
		return nil, fmt.Errorf("workload: pattern %q produces a group schedule, use GenerateChurn", Churn)
	}

	var perm []int
	if spec.Pattern == Permutation {
		perm = derangement(spec.Nodes, rng)
	}

	clock := make([]sim.Time, spec.Nodes)
	msgs := make([]Message, 0, spec.Messages)
	for i := 0; i < spec.Messages; i++ {
		src := rng.Intn(spec.Nodes)
		var dst int
		switch spec.Pattern {
		case Uniform:
			dst = otherThan(src, spec.Nodes, rng)
		case Permutation:
			dst = perm[src]
		case Hotspot:
			if src != 0 && rng.Float64() < hot {
				dst = 0
			} else {
				dst = otherThan(src, spec.Nodes, rng)
			}
		case Neighbor:
			dst = (src + 1) % spec.Nodes
		default:
			return nil, fmt.Errorf("workload: unknown pattern %q", spec.Pattern)
		}

		var size int
		switch spec.Sizes {
		case Fixed:
			size = spec.MeanSize
		case Bimodal:
			if rng.Float64() < 0.9 {
				size = maxInt(1, spec.MeanSize/4)
			} else {
				size = spec.MeanSize * 16
			}
		case UniformSize:
			size = 1 + rng.Intn(2*spec.MeanSize)
		default:
			return nil, fmt.Errorf("workload: unknown size distribution %q", spec.Sizes)
		}

		if spec.MeanGap > 0 {
			clock[src] += rng.Duration(2 * spec.MeanGap)
		}
		msgs = append(msgs, Message{Src: src, Dst: dst, Size: size, At: clock[src]})
	}
	return msgs, nil
}

// otherThan draws a uniform destination different from src.
func otherThan(src, n int, rng *sim.RNG) int {
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// derangement returns a random permutation with no fixed points, so a
// permutation pattern never asks a node to send to itself.
func derangement(n int, rng *sim.RNG) []int {
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Totals summarizes a generated workload.
type Totals struct {
	Messages int
	Bytes    int
	PerDst   map[int]int
}

// Summarize tallies a message list.
func Summarize(msgs []Message) Totals {
	t := Totals{PerDst: make(map[int]int)}
	for _, m := range msgs {
		t.Messages++
		t.Bytes += m.Size
		t.PerDst[m.Dst]++
	}
	return t
}
