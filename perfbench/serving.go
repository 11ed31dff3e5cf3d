package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/dataset"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/tensor"
)

// The served configuration is ebserve's shipped default: MLP-S with
// zoo weights of seed 1, priced on EinsteinBarrier, dynamic batching at
// MaxBatch 64 and MaxWait 500µs, one batch worker, the default
// inference pool.
const (
	servedModel = "MLP-S"
	servedSeed  = 1
	servedWait  = 500 * time.Microsecond
	// poolSize distinct inputs per run, drawn from the seed; every
	// request carries one of them, so each reply has a reference
	// computed before the timed phase.
	poolSize = 256
	// A run repeats the program set-up at least minSetups times and
	// until setupBudget has passed; setup_s is the median.
	minSetups   = 5
	setupBudget = 2 * time.Second
	// warmup runs before every timed phase: the inference pool clones
	// its models and the pricer fills its batch-size memo on first use.
	warmup = time.Second
)

// expected is the reference reply for one pool input.
type expected struct {
	class  int
	logits []float64
}

// servingInputs builds the seeded input pool, its reference replies
// from the per-sample bnn.Model.Infer path, and the pre-encoded JSON
// request bodies.
func servingInputs(m *bnn.Model, seed int64) ([]*tensor.Float, []expected, [][]byte, error) {
	samples := dataset.Digits(poolSize, seed)
	xs := make([]*tensor.Float, poolSize)
	refs := make([]expected, poolSize)
	bodies := make([][]byte, poolSize)
	for i, s := range samples {
		flat := append([]float64(nil), s.X.Data()...)
		xs[i] = tensor.FromSlice(flat, len(flat))
		y := m.Infer(s.X)
		refs[i] = expected{class: y.ArgMax(), logits: append([]float64(nil), y.Data()...)}
		b, err := json.Marshal(serve.InferRequest{Input: flat})
		if err != nil {
			return nil, nil, nil, err
		}
		bodies[i] = b
	}
	return xs, refs, bodies, nil
}

// setupTimes are the phases of one program set-up, in seconds.
type setupTimes struct {
	newModel, pipeline, serveNew, total float64
	reps                                int
}

// served is one built server and what was built around it.
type served struct {
	srv   *serve.Server
	model *bnn.Model
	timed *timedBackend // non-nil on a traced server
	hwCfg robust.Config
	setup setupTimes
}

// buildServer runs one program set-up: zoo synthesis, the pricer's
// pipeline engine, the backend and the server (whose replicas are
// built eagerly — for hardware that programs the crossbars).
func buildServer(backend string, maxBatch int, traced bool) (*served, error) {
	design, err := arch.ParseDesign("EinsteinBarrier")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	model, err := bnn.NewModel(servedModel, servedSeed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	eng, err := eval.Pipeline(eval.DefaultConfig(), model, design)
	if err != nil {
		return nil, err
	}
	pricer, err := serve.NewPricer(eng)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	sv := &served{model: model}
	var be serve.Backend
	switch backend {
	case "software":
		be, err = serve.NewSoftwareBackend(model, 0)
	case "hardware":
		spec, serr := design.Spec()
		if serr != nil {
			return nil, serr
		}
		sv.hwCfg = robust.DefaultConfig(spec.Tech)
		be, err = serve.NewHardwareBackend(model, sv.hwCfg)
	default:
		err = fmt.Errorf("unknown backend %q", backend)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		sv.timed = &timedBackend{Backend: be}
		be = sv.timed
	}
	sv.srv, err = serve.New(serve.Config{Backend: be, MaxBatch: maxBatch, MaxWait: servedWait, Pricer: pricer})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	sv.setup = setupTimes{
		newModel: t1.Sub(t0).Seconds(),
		pipeline: t2.Sub(t1).Seconds(),
		serveNew: t3.Sub(t2).Seconds(),
		total:    t3.Sub(t0).Seconds(),
	}
	return sv, nil
}

// moreSetups reports whether set-up round i should run.
func moreSetups(i int, start time.Time) bool {
	return i < minSetups || time.Since(start) < setupBudget
}

// buildServerMedian repeats the set-up, keeps the last server and
// reports the median of each phase.
func buildServerMedian(backend string, maxBatch int) (*served, setupTimes, error) {
	var sv *served
	var nm, pl, sn, tot []float64
	for i, start := 0, time.Now(); moreSetups(i, start); i++ {
		var err error
		if sv, err = buildServer(backend, maxBatch, false); err != nil {
			return nil, setupTimes{}, err
		}
		nm = append(nm, sv.setup.newModel)
		pl = append(pl, sv.setup.pipeline)
		sn = append(sn, sv.setup.serveNew)
		tot = append(tot, sv.setup.total)
	}
	return sv, setupTimes{median(nm), median(pl), median(sn), median(tot), len(tot)}, nil
}

// call is one client request and what came back.
type call struct {
	idx        int       // pool input
	due        time.Time // open loop: scheduled arrival; closed loop: start
	start, end time.Time
	status     int
	body       []byte
}

// post drives the server's real HTTP handler in-process: the request
// body is decoded and the reply encoded exactly as over a socket.
func post(h http.Handler, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// The sparse workload: open-loop Poisson arrivals at sparseRate from
// one generator goroutine handing each arrival to one of nproc callers,
// so at most nproc calls are in flight. The rate is far below capacity:
// more than nine requests in ten are batched alone (the per-sample
// Model.Infer path), the rest with one or two others (the 64-lane
// InferBatchBits path at low occupancy), so latency is one forward pass
// plus the HTTP round and the batcher's wait. At 100 and 150 requests/s a request that
// overlapped another took the 4-8 ms lane path, later arrivals queued
// behind it, and whether that cascaded followed the host's speed: p50
// moved between 3.0 and 6.6 ms from run to run; at 50 requests/s it
// still did in one run in five (p50 5.5 ms against 3.0-3.3).
const sparseRate = 20 // requests/s

// lateLimit marks a run invalid: a generator that wakes this much
// later than an arrival's due time (or than the moment a caller became
// free for it) is measuring its own stall.
const lateLimit = 100 * time.Millisecond

// spinAhead is how long before an arrival the generator stops sleeping
// and polls the clock instead.
const spinAhead = 2 * time.Millisecond

func runSparse(o options) (*report, error) {
	return runServing(o, "sparse")
}

// The saturated workload: 2×MaxBatch callers in a closed loop keep the
// batcher full, so every batch fills a 64-lane word and throughput is
// bound by request decoding and the full-word forward pass.
const saturatedInFlight = 2 * 64

func runSaturated(o options) (*report, error) {
	return runServing(o, "saturated")
}

// servingPhase is the outcome of one timed phase.
type servingPhase struct {
	calls    []call
	winStart time.Time
	winEnd   time.Time
	lateMax  time.Duration // sparse: generator wake-up lateness
	waitMax  time.Duration // sparse: longest wait for a free caller
	openLoop bool
}

func runServing(o options, kind string) (*report, error) {
	rep := newReport()
	sv, st, err := buildServerMedian("software", 64)
	if err != nil {
		return nil, err
	}
	_, refs, bodies, err := servingInputs(sv.model, o.seed)
	if err != nil {
		return nil, err
	}
	phase := func(sv *served, seed int64) *servingPhase {
		sv.srv.Start()
		defer sv.srv.Stop()
		h := sv.srv.Handler()
		if kind == "sparse" {
			n := int(math.Round(sparseRate * warmup.Seconds()))
			openLoop(h, bodies, seed^0x5eed, n, warmup)
			return openLoop(h, bodies, seed, sparseRate*o.seconds, time.Duration(o.seconds)*time.Second)
		}
		return closedLoop(h, bodies, seed, saturatedInFlight, time.Duration(o.seconds)*time.Second)
	}
	ph := phase(sv, o.seed)
	e2e := analyzeServing(rep, o, kind, ph, refs)
	rep.e2e = e2e.metrics()
	rep.e2e[mSetup] = st.total
	fmt.Fprintf(o.out, "%s: MLP-S software backend, MaxBatch 64, MaxWait %v, EinsteinBarrier pricing\n", kind, servedWait)
	e2e.print(o, kind)
	printMetric(o.out, "setup_s", st.total, "s", fmt.Sprintf("median of %d set-ups", st.reps))
	if !o.trace {
		return rep, nil
	}

	// Traced phase: a fresh server whose backend times every batch.
	tsv, err := buildServer("software", 64, true)
	if err != nil {
		return nil, err
	}
	tph := phase(tsv, o.seed)
	tr := newReport()
	te := analyzeServing(tr, o, kind, tph, refs)
	rep.problems = append(rep.problems, tr.problems...)
	rep.attempted += tr.attempted
	rep.failed += tr.failed
	fmt.Fprintln(o.out, "traced phase:")
	te.print(o, kind)
	L := rep.layers
	L["http.overhead_ms.p50"] = te.overheadP50
	L["serve.queue_ms.p50"] = te.queueP50
	L["serve.batch_size.mean"] = te.batchMean
	L["serve.batch1_share"] = te.batch1Share
	backendLayers(L, tsv.timed, tph.winStart, tph.winEnd)
	price, err := priceMix(sv.model, te.batchSizes)
	if err != nil {
		return nil, err
	}
	L["sim.price_us"] = price
	L["bnn.new_model_s"] = st.newModel
	L["eval.pipeline_s"] = st.pipeline
	L["serve.new_s"] = st.serveNew
	if kind == "sparse" {
		L["loadgen.late_ms.max"] = ms(tph.lateMax)
	}
	overheads(L, rep.e2e, te.metrics(), tsv.setup.total)
	return rep, nil
}

// openLoop sends n requests on the seeded Poisson schedule over span
// from one generator, each handed to one of nproc callers. Latency is
// timed from the arrival's due time, so a stall that delays later
// arrivals is charged to them.
func openLoop(h http.Handler, bodies [][]byte, seed int64, n int, span time.Duration) *servingPhase {
	sched := arrivals(seed, n, span)
	idx := picks(seed+1, n, len(bodies))
	calls := make([]call, n)
	work := make(chan int) // unbuffered: a send waits for a free caller
	var wg sync.WaitGroup
	callers := runtime.NumCPU()
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for i := range work {
				cl := &calls[i]
				cl.start = time.Now()
				cl.status, cl.body = post(h, bodies[cl.idx])
				cl.end = time.Now()
			}
		}()
	}
	ph := &servingPhase{openLoop: true}
	start := time.Now().Add(10 * time.Millisecond)
	ph.winStart = start
	var handed time.Time // when the previous arrival found a caller
	for i, off := range sched {
		due := start.Add(off)
		// A timer wakes up to a millisecond late on a virtual machine:
		// sleep to just short of the due time, then spin until it.
		// The spin keeps its processor: runtime.Gosched would queue the
		// generator behind a running forward pass for up to the
		// scheduler's 10 ms time slice.
		if d := time.Until(due) - spinAhead; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		// The generator's own lateness counts from the due time or,
		// when every caller was still busy at the due time, from the
		// moment one became free: that wait is the server's and is
		// charged to the requests' latency, not to the generator.
		ready := due
		if handed.After(ready) {
			ready = handed
		}
		if late := time.Since(ready); late > ph.lateMax {
			ph.lateMax = late
		}
		calls[i].idx, calls[i].due = idx[i], due
		work <- i
		handed = time.Now()
		if w := handed.Sub(due); w > ph.waitMax {
			ph.waitMax = w
		}
	}
	close(work)
	wg.Wait()
	ph.calls = calls
	ph.winEnd = start.Add(span)
	return ph
}

// closedLoop runs inFlight callers, each sending its next request as
// soon as the previous reply arrives, for a warm-up and then span. The
// phase keeps the calls started inside the measured window.
func closedLoop(h http.Handler, bodies [][]byte, seed int64, inFlight int, span time.Duration) *servingPhase {
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(span)
	per := make([][]call, inFlight)
	var wg sync.WaitGroup
	wg.Add(inFlight)
	for c := 0; c < inFlight; c++ {
		go func(c int) {
			defer wg.Done()
			// Each caller draws its inputs from its own seeded stream.
			idx := picks(seed*1000003+int64(c), 4096, len(bodies))
			for k := 0; ; k++ {
				t := time.Now()
				if !t.Before(winEnd) {
					return
				}
				i := idx[k%len(idx)]
				status, body := post(h, bodies[i])
				if t.Before(winStart) {
					continue
				}
				per[c] = append(per[c], call{idx: i, due: t, start: t, end: time.Now(), status: status, body: body})
			}
		}(c)
	}
	wg.Wait()
	ph := &servingPhase{winStart: winStart, winEnd: winEnd}
	for _, cs := range per {
		ph.calls = append(ph.calls, cs...)
	}
	return ph
}

// servingStats are the end-to-end and reply-body numbers of a phase.
type servingStats struct {
	p50, p90, rate        float64
	windows               int            // statistics windows
	lat                   latencySummary // whole phase
	overheadP50, queueP50 float64
	batchMean             float64
	batch1Share           float64
	batchSizes            []int // of the distinct batches served
}

func (s servingStats) metrics() map[string]float64 {
	return map[string]float64{mP50: s.p50, mRate: s.rate}
}

func (s servingStats) print(o options, kind string) {
	if kind == "sparse" {
		printMetric(o.out, "serve_p50_ms", s.p50, "ms", fmt.Sprintf("%d requests, from due time; medians of %d windows", s.lat.n, s.windows))
		printMetric(o.out, "serve_p90_ms", s.p90, "ms", "not gated")
		printMetric(o.out, "serve_p99_ms", s.lat.p99, "ms", "not gated")
		printMetric(o.out, "completed_per_s", s.rate, "1/s", fmt.Sprintf("offered %d/s", sparseRate))
	} else {
		printMetric(o.out, "serve_rps", s.rate, "1/s", fmt.Sprintf("%d requests; medians of %d windows", s.lat.n, s.windows))
		printMetric(o.out, "serve_p50_ms", s.p50, "ms", "")
		printMetric(o.out, "serve_p90_ms", s.p90, "ms", "not gated")
		printMetric(o.out, "serve_p99_ms", s.lat.p99, "ms", "whole phase, not gated")
	}
	printMetric(o.out, "mean batch", s.batchMean, "requests", fmt.Sprintf("%d batches, %.1f%% of requests alone", len(s.batchSizes), 100*s.batch1Share))
}

// analyzeServing checks every reply against its reference, counts the
// failures and computes the phase's numbers.
func analyzeServing(rep *report, o options, kind string, ph *servingPhase, refs []expected) servingStats {
	var acc failures
	var lat, overhead, queue []float64
	var ds []done
	batchSize := map[int64]int{}
	alone := 0
	var lastEnd time.Time
	mismatches := 0
	for _, c := range ph.calls {
		acc.attempted++
		if !acc.status(c.status) {
			continue
		}
		var r serve.InferResponse
		if err := json.Unmarshal(c.body, &r); err != nil {
			rep.problem("%s: a reply is not an InferResponse: %v", kind, err)
			continue
		}
		if !sameReply(r, refs[c.idx]) {
			mismatches++
			continue
		}
		lat = append(lat, ms(c.end.Sub(c.due)))
		ds = append(ds, done{at: c.due, end: c.end})
		overhead = append(overhead, ms(c.end.Sub(c.start))-r.LatencyMs)
		queue = append(queue, r.QueueMs)
		batchSize[r.BatchSeq] = r.BatchSize
		if r.BatchSize == 1 {
			alone++
		}
		if c.end.After(lastEnd) {
			lastEnd = c.end
		}
	}
	if mismatches > 0 {
		rep.problem("%s: %d replies differ from bnn.Model.Infer", kind, mismatches)
	}
	acc.print(o, kind)
	rep.attempted += acc.attempted
	rep.failed += acc.failed()
	st := servingStats{
		lat:         summarize(lat),
		overheadP50: median(overhead),
		queueP50:    median(queue),
	}
	for _, b := range batchSize {
		st.batchSizes = append(st.batchSizes, b)
	}
	if len(lat) > 0 {
		st.batch1Share = float64(alone) / float64(len(lat))
		st.batchMean = float64(len(lat)) / float64(len(batchSize))
	}
	ws := windowed(ds, ph.winStart, ph.winEnd)
	st.p50, st.p90, st.windows = ws.p50, ws.p90, ws.windows
	if ph.openLoop {
		// Completions over the schedule's span plus the drain of the
		// last arrivals.
		st.rate = float64(len(lat)) / lastEnd.Sub(ph.winStart).Seconds()
		if ph.lateMax > lateLimit {
			rep.problem("run invalid: the generator woke %.1f ms late (limit %v)", ms(ph.lateMax), lateLimit)
		}
		fmt.Fprintf(o.out, "  generator late by at most %.3f ms; an arrival waited at most %.3f ms for a free caller\n",
			ms(ph.lateMax), ms(ph.waitMax))
	} else {
		st.rate = ws.rate
	}
	return st
}

// sameReply reports whether a served reply equals its reference: the
// same class and bit-identical logits.
func sameReply(r serve.InferResponse, want expected) bool {
	if r.Class != want.class || len(r.Logits) != len(want.logits) {
		return false
	}
	for i, v := range r.Logits {
		if v != want.logits[i] {
			return false
		}
	}
	return true
}

// failures is the per-workload failure accounting.
type failures struct {
	attempted, completed, shed, client4xx, server5xx, timedOut int
}

// status counts one reply status and reports whether it completed.
func (f *failures) status(code int) bool {
	switch {
	case code == http.StatusOK:
		f.completed++
		return true
	case code == http.StatusServiceUnavailable:
		f.shed++
	case code == http.StatusGatewayTimeout:
		f.timedOut++
	case code >= 500:
		f.server5xx++
	default:
		f.client4xx++
	}
	return false
}

func (f failures) failed() int { return f.attempted - f.completed }

func (f failures) print(o options, kind string) {
	fmt.Fprintf(o.out, "  %s requests: attempted %d, completed %d, shed %d, 4xx %d, 5xx %d, timed out %d\n",
		kind, f.attempted, f.completed, f.shed, f.client4xx, f.server5xx, f.timedOut)
}
