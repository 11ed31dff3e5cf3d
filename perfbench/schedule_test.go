package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestArrivalsDeterministicAndSpanned(t *testing.T) {
	const n = 1500
	span := 10 * time.Second
	a := arrivals(42, n, span)
	if !reflect.DeepEqual(a, arrivals(42, n, span)) {
		t.Fatal("same seed gave a different schedule")
	}
	if reflect.DeepEqual(a, arrivals(43, n, span)) {
		t.Fatal("another seed gave the same schedule")
	}
	if len(a) != n || a[n-1] != span {
		t.Fatalf("len %d, last %v; want %d arrivals ending at %v", len(a), a[len(a)-1], n, span)
	}
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
}

func TestArrivalsArePoisson(t *testing.T) {
	// Exponential gaps: mean span/n and coefficient of variation ≈ 1.
	const n = 20000
	a := arrivals(7, n, time.Duration(n)*time.Millisecond)
	var sum, sq float64
	prev := time.Duration(0)
	for _, x := range a {
		g := float64(x-prev) / float64(time.Millisecond)
		prev = x
		sum += g
		sq += g * g
	}
	m := sum / n
	cv := math.Sqrt(sq/n-m*m) / m
	if math.Abs(m-1) > 1e-6 || math.Abs(cv-1) > 0.05 {
		t.Errorf("gap mean %.4f ms (want 1), cv %.3f (want ≈1)", m, cv)
	}
}

func TestPicksDeterministicInRange(t *testing.T) {
	p := picks(3, 1000, 256)
	if !reflect.DeepEqual(p, picks(3, 1000, 256)) {
		t.Fatal("same seed gave different picks")
	}
	seen := map[int]bool{}
	for _, i := range p {
		if i < 0 || i >= 256 {
			t.Fatalf("pick %d outside the pool", i)
		}
		seen[i] = true
	}
	if len(seen) < 200 {
		t.Errorf("1000 picks hit only %d of 256 inputs", len(seen))
	}
}

func TestCompletionRateCountsFromFirstCompletion(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ends []time.Time
	// Batches of 4 completing every 100 ms: 40 req/s.
	for b := 0; b < 11; b++ {
		for i := 0; i < 4; i++ {
			ends = append(ends, t0.Add(time.Duration(b)*100*time.Millisecond))
		}
	}
	if got := completionRate(ends); math.Abs(got-40) > 1e-9 {
		t.Errorf("completionRate = %v, want 40", got)
	}
}

func TestWindowedTakesMedianAcrossWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ds []done
	// Ten 1-s windows of 100 operations 10 ms apart, each taking 2 ms,
	// except one window where every operation takes 50 ms.
	for w := 0; w < 10; w++ {
		took := 2 * time.Millisecond
		if w == 3 {
			took = 50 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			at := t0.Add(time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond)
			ds = append(ds, done{at: at, end: at.Add(took)})
		}
	}
	ws := windowed(ds, t0, t0.Add(10*time.Second))
	if ws.p50 != 2 || ws.p90 != 2 || ws.windows != 10 {
		t.Errorf("windowed = %+v, want p50 = p90 = 2 ms over 10 windows", ws)
	}
	if math.Abs(ws.rate-100) > 1 {
		t.Errorf("windowed rate = %v, want ≈100/s", ws.rate)
	}
}
