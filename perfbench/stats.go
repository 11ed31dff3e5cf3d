package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks: rank h = (n-1)·q, the
// estimator numpy and R call type 7. xs need not be sorted and is left
// unchanged; an empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile on an already ascending sample.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary is the p50/p90/p99 of a latency sample in ms.
type latencySummary struct {
	n             int
	p50, p90, p99 float64
}

func summarize(latMs []float64) latencySummary {
	s := append([]float64(nil), latMs...)
	sort.Float64s(s)
	return latencySummary{
		n:   len(s),
		p50: sortedQuantile(s, 0.50),
		p90: sortedQuantile(s, 0.90),
		p99: sortedQuantile(s, 0.99),
	}
}

// perWindow is the least mean number of operations per window.
const perWindow = 100

// done is one completed operation: when it was due (or sent) and when
// its reply arrived.
type done struct {
	at, end time.Time
}

// windowStats are numbers taken per window and reduced to their median
// across windows.
type windowStats struct {
	p50, p90 float64 // latency, ms
	rate     float64 // completions/s
	windows  int
}

// windowed splits [from, to) into equal windows and computes the
// latency p50 and p90 of the operations due in each and the completion
// rate of each (meaningful for a closed loop); it reports the median of each across the windows that
// saw work. A burst of host noise that spoils a few windows leaves the
// medians where they were, while a whole-run figure would absorb it.
// Windows are at least a second long and hold perWindow operations on
// average, so each p90 has ten beyond it.
func windowed(ds []done, from, to time.Time) windowStats {
	n := max(1, min(len(ds)/perWindow, int(to.Sub(from)/time.Second)))
	w := to.Sub(from) / time.Duration(n)
	lat := make([][]float64, n)
	ends := make([][]time.Time, n)
	for _, d := range ds {
		if k := int(d.at.Sub(from) / w); k >= 0 && k < n {
			lat[k] = append(lat[k], ms(d.end.Sub(d.at)))
		}
		if k := int(d.end.Sub(from) / w); k >= 0 && k < n {
			ends[k] = append(ends[k], d.end)
		}
	}
	var p50, p90, rate []float64
	for k := 0; k < n; k++ {
		if len(lat[k]) > 0 {
			s := summarize(lat[k])
			p50 = append(p50, s.p50)
			p90 = append(p90, s.p90)
		}
		if r := completionRate(ends[k]); r > 0 {
			rate = append(rate, r)
		}
	}
	return windowStats{p50: median(p50), p90: median(p90), rate: median(rate), windows: len(p50)}
}

// completionRate is the closed-loop completion rate of a window:
// completions after the window's first, over the time from the first
// to the last. Counting from a completion rather than the window edge
// keeps batch granularity out of the rate.
func completionRate(ends []time.Time) float64 {
	if len(ends) < 2 {
		return 0
	}
	first, last := ends[0], ends[0]
	for _, e := range ends {
		if e.Before(first) {
			first = e
		}
		if e.After(last) {
			last = e
		}
	}
	n := 0
	for _, e := range ends {
		if e.After(first) {
			n++
		}
	}
	if !last.After(first) {
		return 0
	}
	return float64(n) / last.Sub(first).Seconds()
}
