package main

import "repro/internal/stats"

// median is the 50th percentile by the repository's own nearest-rank rule;
// 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Percentile(v, 50)
}

// spreadPct is the distance between the first and third quartile as a
// percentage of the median — the run-to-run spread the bounds are judged
// against. Fewer than two samples have no spread.
func spreadPct(v []float64) float64 {
	if m := median(v); len(v) >= 2 && m != 0 {
		return 100 * (stats.Percentile(v, 75) - stats.Percentile(v, 25)) / m
	}
	return 0
}
