// Command perfbench is the repository benchmark. One run drives one
// workload for a fixed time and prints, as its last line, a JSON object
// with the output-check verdict, the failure counts and the metrics:
// the end-to-end metrics of an untraced run, or the per-layer metrics
// of a traced one (--trace 1).
//
//	bash perfbench/run.sh --workload sparse --seed 1 --seconds 10 --trace 0
//
// Workloads (why each was chosen is beside its definition):
//
//	sparse     open-loop Poisson HTTP traffic well below capacity
//	saturated  closed-loop HTTP traffic that fills every batch
//	search     cold placement search: compiler + sim only
//	hardware   the crossbar-simulated backend: robust, crossbar, device
//
// Every workload reports the same three end-to-end metrics, so that a
// later change can be compared on each of them:
//
//	latency_p50_ms    per operation: a request, timed on the client
//	                  (from its due time on sparse); a cycle of
//	                  searches on search
//	throughput_per_s  requests/s (steps/s on search)
//	setup_s           median of repeated program set-ups
//
// The p90 latencies are printed on the text lines but not reported in
// the JSON: on a shared two-vCPU host the sparse p90 of one seed read
// 3.3 ms in one run and 8.2 ms in another, moved by the host alone.
//
// Closed-loop figures are medians over windows of the run, so a burst
// of host noise in a few of them does not move the result.
//
// The lines before the JSON name the same numbers in the terms of the
// workload (serve_p50_ms, search_steps_per_s, hw_rps, …), together with
// the host, the failure accounting and the search digests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"einsteinbarrier/internal/cpu"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metric names: reported by every workload.
const (
	mP50   = "latency_p50_ms"
	mRate  = "throughput_per_s"
	mSetup = "setup_s"
)

// endToEnd lists the end-to-end metrics with their units, in print
// order. BENCHMARK.json lists the same (pinned by a test).
var endToEnd = []struct{ name, unit string }{
	{mP50, "ms"},
	{mRate, "1/s"},
	{mSetup, "s"},
}

// perLayer lists the per-layer metrics of a traced run with their
// units. A workload reports the layers it runs; a layer it does not run
// did no work in it and reads 0. BENCHMARK.json lists the same.
var perLayer = []struct{ name, unit string }{
	// serve: HTTP front end, admission queue, dynamic batcher.
	{"http.overhead_ms.p50", "ms"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.batch_size.mean", "count"},
	{"serve.batch1_share", "share"},
	// infer/bnn/bitops (software) or robust (hardware) behind serve.Backend.
	{"backend.run_batch_ms.p50", "ms"},
	{"backend.us_per_sample", "us"},
	{"backend.busy_share", "share"},
	// sim: the pricer's engine at the run's batch-size mix.
	{"sim.price_us", "us"},
	// sim evaluators under compiler.SearchPlacer and eval co-location.
	{"eval.score_calls", "count"},
	{"eval.score_us.mean", "us"},
	{"eval.colo_score_us.mean", "us"},
	{"eval.cached_hits", "count"},
	{"eval.hit_ratio", "share"},
	{"eval.pool_reuse_ratio", "share"},
	{"search.self_ms", "ms"},
	// robust/crossbar/device: the hardware read path.
	{"robust.infer_ms", "ms"},
	{"crossbar.vmm_ops_per_sample", "count"},
	{"crossbar.row_activations_per_sample", "count"},
	{"crossbar.adc_conversions_per_sample", "count"},
	// set-up phases.
	{"bnn.new_model_s", "s"},
	{"eval.pipeline_s", "s"},
	{"serve.new_s", "s"},
	{"robust.program_s", "s"},
	// load generator health (sparse).
	{"loadgen.late_ms.max", "ms"},
	// traced over untraced, per end-to-end metric.
	{"trace.overhead.latency_p50_ms", "x"},
	{"trace.overhead.throughput_per_s", "x"},
	{"trace.overhead.setup_s", "x"},
}

// options are the command-line flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      io.Writer // human-readable lines
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	// problems lists failed output checks; any entry fails the run.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*report, error){
	"sparse":    runSparse,
	"saturated": runSaturated,
	"search":    runSearch,
	"hardware":  runHardware,
}

func main() {
	res, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run parses the flags, runs the workload and assembles the result.
func run(args []string, out io.Writer) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per phase")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run, print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds %d must be ≥ 1", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return nil, fmt.Errorf("--trace %d must be 0 or 1", traceFlag)
	}
	o.trace = traceFlag == 1
	o.out = out
	printHost(out, o)

	rep, err := wl(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	res := &result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operation", o.workload)
	}
	list, values := endToEnd, rep.e2e
	if o.trace {
		list, values = perLayer, rep.layers
	}
	for _, m := range list {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printHost records what the numbers were measured on.
func printHost(out io.Writer, o options) {
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, %s, cpu %q, avx512 %v/vpopcntdq %v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(),
		cpu.HasAVX512F, cpu.HasAVX512VPOPCNTDQ)
	fmt.Fprintf(out, "run: workload %s, seed %d, %d s per phase, trace %v\n",
		o.workload, o.seed, o.seconds, o.trace)
}

// cpuModel reads the processor name from /proc/cpuinfo where the OS
// provides one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printMetric prints one number under the name the workload gives it.
func printMetric(out io.Writer, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(out, "  %-22s %12.4f %s%s\n", name, v, unit, note)
}
