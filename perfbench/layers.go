package main

import (
	"sort"
	"sync"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/tensor"
)

// Spans recorded around the calls into each layer, from the
// benchmark's side of the API. Nothing here runs in an untraced phase.

// span is one timed call.
type span struct{ start, end time.Time }

// batchSpan is one Replica.RunBatch call of n samples.
type batchSpan struct {
	span
	n int
}

// timedBackend is a serve.Backend whose replicas time every RunBatch.
type timedBackend struct {
	serve.Backend
	mu    sync.Mutex
	spans []batchSpan
}

func (b *timedBackend) NewReplica() (serve.Replica, error) {
	r, err := b.Backend.NewReplica()
	if err != nil {
		return nil, err
	}
	return &timedReplica{Replica: r, b: b}, nil
}

type timedReplica struct {
	serve.Replica
	b *timedBackend
}

func (r *timedReplica) RunBatch(xs []*tensor.Float, out []serve.Prediction) error {
	t := time.Now()
	err := r.Replica.RunBatch(xs, out)
	end := time.Now()
	r.b.mu.Lock()
	r.b.spans = append(r.b.spans, batchSpan{span{t, end}, len(xs)})
	r.b.mu.Unlock()
	return err
}

// window returns the batch spans that started inside [from, to).
func (b *timedBackend) window(from, to time.Time) []batchSpan {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []batchSpan
	for _, s := range b.spans {
		if !s.start.Before(from) && s.start.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

// backendLayers fills the backend.* metrics from the batches a traced
// phase ran in [from, to).
func backendLayers(L map[string]float64, b *timedBackend, from, to time.Time) {
	var durs []float64
	var total, busy time.Duration
	samples := 0
	for _, s := range b.window(from, to) {
		d := s.end.Sub(s.start)
		durs = append(durs, ms(d))
		total += d
		samples += s.n
		// Busy time inside the window: a batch may end after it.
		busy += min(d, to.Sub(s.start))
	}
	L["backend.run_batch_ms.p50"] = median(durs)
	if samples > 0 {
		L["backend.us_per_sample"] = float64(total.Nanoseconds()) / 1e3 / float64(samples)
	}
	L["backend.busy_share"] = busy.Seconds() / to.Sub(from).Seconds()
}

// priceMix times sim.Engine.RunBatch on a fresh eval.Pipeline engine
// over the served batch sizes, in µs per call — what the pricer would
// pay without its batch-size memo.
func priceMix(m *bnn.Model, sizes []int) (float64, error) {
	design, err := arch.ParseDesign("EinsteinBarrier")
	if err != nil {
		return 0, err
	}
	eng, err := eval.Pipeline(eval.DefaultConfig(), m, design)
	if err != nil {
		return 0, err
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	t := time.Now()
	for _, b := range sorted {
		if _, err := eng.RunBatch(b); err != nil {
			return 0, err
		}
	}
	if len(sorted) == 0 {
		return 0, nil
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(sorted)), nil
}

// overheads records traced/untraced for every end-to-end metric.
func overheads(L, untraced, traced map[string]float64, tracedSetup float64) {
	traced[mSetup] = tracedSetup
	for _, m := range endToEnd {
		if u := untraced[m.name]; u != 0 {
			L["trace.overhead."+m.name] = traced[m.name] / u
		}
	}
}

// timedEvaluator wraps a search objective, timing every Score call and
// counting the fingerprint probes that hit. It forwards CachedScore:
// without it the search placer would take its uncached path and the
// traced search would be a different program.
type timedEvaluator struct {
	inner  compiler.CachedEvaluator
	mu     sync.Mutex
	calls  int
	hits   int
	scored time.Duration // Σ Score durations
	spans  []span        // Score calls, overlapping when scored in parallel
}

func (e *timedEvaluator) Score(c *compiler.Compiled) (float64, error) {
	t := time.Now()
	v, err := e.inner.Score(c)
	end := time.Now()
	e.mu.Lock()
	e.calls++
	e.scored += end.Sub(t)
	e.spans = append(e.spans, span{t, end})
	e.mu.Unlock()
	return v, err
}

// covered is the wall time during which at least one span was open:
// the part of the enclosing search's span its Score children cover.
func covered(spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur span
	for i, x := range s {
		switch {
		case i == 0:
			cur = x
		case x.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = x
		case x.end.After(cur.end):
			cur.end = x.end
		}
	}
	if len(s) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

func (e *timedEvaluator) CachedScore(model string, design arch.Design, p *compiler.Placement) (float64, bool) {
	v, ok := e.inner.CachedScore(model, design, p)
	if ok {
		e.mu.Lock()
		e.hits++
		e.mu.Unlock()
	}
	return v, ok
}
