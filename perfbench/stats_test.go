package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {0.99, 3.97}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of an empty sample = %v, want NaN", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.n != 100 || s.p50 != 50.5 || math.Abs(s.p90-90.1) > 1e-9 || math.Abs(s.p99-99.01) > 1e-9 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}
