package main

import (
	"errors"
	"fmt"
	"time"

	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/tensor"
)

// The hardware workload: MLP-S on the simulated-crossbar backend
// (robust.HardwareModel on the design's device technology) at MaxBatch
// 4, fed in a closed loop through Server.SubmitAsync. Without it the
// robust, crossbar and device layers go unmeasured. Set-up programs the
// crossbars (the write path); the timed phase runs the read path.
const (
	hwMaxBatch = 4
	hwInFlight = 2 * hwMaxBatch
	// hwAgreementFloor is the least share of hardware classes that must
	// equal the software reference. Reads carry seeded device noise
	// drawn in request order, so a reply is not a function of its input
	// alone and cannot be compared exactly; at the default device
	// corner every class agreed in the runs that set this floor.
	hwAgreementFloor = 0.97
	// hwProbe inputs are run through a separately mapped model in the
	// traced run for the robust/crossbar per-sample numbers.
	hwProbe = 8
)

// hwCall is one submitted request and its reply.
type hwCall struct {
	idx        int
	start, end time.Time
	res        serve.Result
	err        error
}

func runHardware(o options) (*report, error) {
	rep := newReport()
	sv, st, err := buildServerMedian("hardware", hwMaxBatch)
	if err != nil {
		return nil, err
	}
	xs, refs, _, err := servingInputs(sv.model, o.seed)
	if err != nil {
		return nil, err
	}
	span := time.Duration(o.seconds) * time.Second
	fmt.Fprintf(o.out, "hardware: MLP-S %s, MaxBatch %d, %d in flight, EinsteinBarrier pricing\n",
		sv.srv.Stats().Backend, hwMaxBatch, hwInFlight)
	calls, from, to := hwLoop(sv.srv, xs, o.seed, span)
	hs := analyzeHardware(rep, o, calls, refs, from, to)
	rep.e2e = hs.metrics()
	rep.e2e[mSetup] = st.total
	hs.print(o)
	printMetric(o.out, "setup_s", st.total, "s", fmt.Sprintf("crossbar programming included, median of %d", st.reps))
	if !o.trace {
		return rep, nil
	}

	tsv, err := buildServer("hardware", hwMaxBatch, true)
	if err != nil {
		return nil, err
	}
	tcalls, tfrom, tto := hwLoop(tsv.srv, xs, o.seed, span)
	tr := newReport()
	ths := analyzeHardware(tr, o, tcalls, refs, tfrom, tto)
	rep.problems = append(rep.problems, tr.problems...)
	rep.attempted += tr.attempted
	rep.failed += tr.failed
	fmt.Fprintln(o.out, "traced phase:")
	ths.print(o)
	L := rep.layers
	L["serve.queue_ms.p50"] = ths.queueP50
	L["serve.batch_size.mean"] = ths.batchMean
	backendLayers(L, tsv.timed, tfrom, tto)
	var sizes []int
	for _, s := range tsv.timed.window(tfrom, tto) {
		sizes = append(sizes, s.n)
	}
	price, err := priceMix(sv.model, sizes)
	if err != nil {
		return nil, err
	}
	L["sim.price_us"] = price
	L["bnn.new_model_s"] = st.newModel
	L["eval.pipeline_s"] = st.pipeline
	L["serve.new_s"] = st.serveNew

	// robust/crossbar probe on a separately programmed model.
	t := time.Now()
	hw, err := robust.Map(sv.model.CloneShared(), sv.hwCfg)
	if err != nil {
		return nil, err
	}
	L["robust.program_s"] = time.Since(t).Seconds()
	before := hw.Stats()
	t = time.Now()
	for i := 0; i < hwProbe; i++ {
		if _, err := hw.Infer(xs[i]); err != nil {
			return nil, err
		}
	}
	L["robust.infer_ms"] = ms(time.Since(t)) / hwProbe
	after := hw.Stats()
	L["crossbar.vmm_ops_per_sample"] = float64(after.VMMOps-before.VMMOps) / hwProbe
	L["crossbar.row_activations_per_sample"] = float64(after.RowActivations-before.RowActivations) / hwProbe
	L["crossbar.adc_conversions_per_sample"] = float64(after.ADCConversions-before.ADCConversions) / hwProbe
	overheads(L, rep.e2e, ths.metrics(), tsv.setup.total)
	return rep, nil
}

// hwLoop keeps hwInFlight requests submitted, one goroutine waiting
// for the oldest reply and submitting the next, for a warm-up and then
// span. One batch worker answers in submission order, so waiting on
// the oldest reply first never holds back a finished one. It returns
// the calls started inside the measured window and the window.
func hwLoop(srv *serve.Server, xs []*tensor.Float, seed int64, span time.Duration) ([]hwCall, time.Time, time.Time) {
	srv.Start()
	defer srv.Stop()
	type pending struct {
		c  hwCall
		ch <-chan serve.Reply
	}
	idx := picks(seed, 1<<16, len(xs))
	start := time.Now()
	from := start.Add(warmup)
	to := from.Add(span)
	var queue []pending
	var calls []hwCall
	k := 0
	submit := func() {
		c := hwCall{idx: idx[k%len(idx)], start: time.Now()}
		k++
		ch, err := srv.SubmitAsync(xs[c.idx])
		if err != nil {
			c.err, c.end = err, time.Now()
			if !c.start.Before(from) {
				calls = append(calls, c)
			}
			return
		}
		queue = append(queue, pending{c: c, ch: ch})
	}
	for i := 0; i < hwInFlight; i++ {
		submit()
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		r := <-p.ch
		p.c.end = time.Now()
		p.c.err, p.c.res = r.Err, r.Result
		if !p.c.start.Before(from) {
			calls = append(calls, p.c)
		}
		if time.Now().Before(to) {
			submit()
		}
	}
	return calls, from, to
}

type hwStats struct {
	win       windowStats
	n         int
	agreement float64
	queueP50  float64 // ms, enqueue to dispatch
	batchMean float64
}

func (s hwStats) metrics() map[string]float64 {
	return map[string]float64{mP50: s.win.p50, mRate: s.win.rate}
}

func (s hwStats) print(o options) {
	n := fmt.Sprintf("%d requests; median of %d windows", s.n, s.win.windows)
	printMetric(o.out, "hw_rps", s.win.rate, "1/s", n)
	printMetric(o.out, "hw_p50_ms", s.win.p50, "ms", "")
	printMetric(o.out, "hw_p90_ms", s.win.p90, "ms", "not gated")
	printMetric(o.out, "hw/sw agreement", s.agreement, "share", fmt.Sprintf("floor %.2f", hwAgreementFloor))
}

func analyzeHardware(rep *report, o options, calls []hwCall, refs []expected, from, to time.Time) hwStats {
	var acc failures
	var ds []done
	var queue []float64
	batches := map[int64]bool{}
	agree := 0
	for _, c := range calls {
		acc.attempted++
		switch {
		case errors.Is(c.err, serve.ErrOverloaded), errors.Is(c.err, serve.ErrClosed):
			acc.shed++
			continue
		case c.err != nil:
			acc.server5xx++
			continue
		}
		acc.completed++
		ds = append(ds, done{at: c.start, end: c.end})
		queue = append(queue, float64(c.res.QueueNs)/1e6)
		batches[c.res.BatchSeq] = true
		if c.res.Class == refs[c.idx].class {
			agree++
		}
	}
	acc.print(o, "hardware")
	rep.attempted += acc.attempted
	rep.failed += acc.failed()
	hs := hwStats{win: windowed(ds, from, to), n: len(ds), queueP50: median(queue)}
	if acc.completed > 0 {
		hs.agreement = float64(agree) / float64(acc.completed)
		hs.batchMean = float64(acc.completed) / float64(len(batches))
	}
	if hs.agreement < hwAgreementFloor {
		rep.problem("hardware: %.3f of classes agree with software, floor %.2f", hs.agreement, hwAgreementFloor)
	}
	return hs
}
