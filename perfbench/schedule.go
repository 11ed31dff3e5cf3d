package main

import (
	"math/rand"
	"time"
)

// arrivals returns the open-loop arrival offsets of one run: n Poisson
// arrivals (exponential gaps) drawn from seed, scaled so the last one
// falls exactly at span. Fixing both the count and the span keeps the
// offered rate at n/span on every seed, so the seed moves only where
// the arrivals bunch up. Identical arguments give the identical
// schedule on any host.
func arrivals(seed int64, n int, span time.Duration) []time.Duration {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	t := make([]float64, n)
	sum := 0.0
	for i := range t {
		sum += rng.ExpFloat64()
		t[i] = sum
	}
	out := make([]time.Duration, n)
	for i, v := range t {
		out[i] = time.Duration(v / sum * float64(span))
	}
	return out
}

// picks returns n indices into a pool of size pool, drawn uniformly
// from seed: which input each request of a run carries.
func picks(seed int64, n, pool int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(pool)
	}
	return out
}
