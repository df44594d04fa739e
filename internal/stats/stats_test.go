package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// The 0th percentile is the minimum.
func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 || Percentile(xs, 0) != -1 {
		t.Fatalf("Min/Max = %v/%v", Percentile(xs, 0), Max(xs))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Max not the -Inf sentinel")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 5}, {100, 10}, {90, 9},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

// Property: percentiles rise with p, and the 100th is Max, for nonempty
// input.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		lo, mid, hi := Percentile(xs, 0), Percentile(xs, 50), Percentile(xs, 100)
		return lo <= mid && mid <= hi && hi == Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
