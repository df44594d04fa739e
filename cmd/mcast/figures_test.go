package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// The two charts the figures draw: factor curves over message size,
// ticked at both ends and the middle, and a skew sweep's two sides.
func TestFigurePlots(t *testing.T) {
	var b strings.Builder
	o := harness.DefaultOptions()
	o.Iters, o.Warmup = 2, 1
	writeFigure(&b, o, 3, "multisend", "destinations", "dests", true, []int{1, 64, 16384}, harness.Sides(o.MultisendHB, o.MultisendNB), 3)
	for _, want := range []string{"Figure 3(b): factor of improvement", "* 3 dests", "1B", "64B", "16K"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("factor plot missing %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	plotSkew(&b, "skew", []harness.Point{{Skew: 0, HB: 30, NB: 15}, {Skew: 400, HB: 160, NB: 12}})
	if !strings.Contains(b.String(), "* host-based   o NIC-based") || !strings.Contains(b.String(), "400") {
		t.Fatalf("skew plot missing series or ticks:\n%s", b.String())
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{1: "1B", 512: "512B", 1024: "1K", 16384: "16K", 3000: "3000B"}
	for n, want := range cases {
		if got := sizeLabel(n); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}
