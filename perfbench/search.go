package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/sim"
)

// The search workload: cold placement search, which runs only the
// compiler and sim layers. One cycle is what these commands do with
// their shipped defaults (-batch 32, 240 search steps, default
// workers):
//
//	ebsim -placer search -model CNN-L   (and MLP-L, CNN-M)
//	ebsim -placer search -models MLP-S,CNN-S
//
// Every search builds a fresh evaluator, so no score comes from an
// earlier search's memo. Zoo synthesis is set-up, outside the timing;
// that is why the co-location search is eval.SearchCoLocate's loop
// over pre-built models (checked equal to eval.SearchCoLocate at
// set-up) rather than the call itself, which synthesizes its models.
var (
	searchSingles = []string{"CNN-L", "MLP-L", "CNN-M"}
	searchColo    = []string{"MLP-S", "CNN-S"}
)

const (
	searchBatch = 32 // ebsim -batch default
	// goldenSeeds search seeds have a recorded digest. A run rotates
	// over all of them in an order --seed draws: every run does the
	// same searches, so only the host moves its numbers.
	goldenSeeds = 16
	// coloChecks seeds per run check the co-location loop against
	// eval.SearchCoLocate itself.
	coloChecks = 2
)

// searchDigests holds the digest of one search cycle per search seed,
// recorded from this repository's search placer. A change to the
// placer's results fails the run.
//
//go:embed testdata/search_digests.json
var searchDigestsJSON []byte

func goldenDigests() (map[int64]string, error) {
	var m map[int64]string
	if err := json.Unmarshal(searchDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("search digests: %w", err)
	}
	return m, nil
}

// runSeeds orders the golden search seeds for a run.
func runSeeds(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(goldenSeeds)
	out := make([]int64, goldenSeeds)
	for i, p := range perm {
		out[i] = int64(p + 1)
	}
	return out
}

// searchModels are the synthesized models of the workload.
type searchModels struct {
	singles, colo []*bnn.Model
}

func synthSearchModels() (*searchModels, error) {
	sm := &searchModels{}
	for _, n := range searchSingles {
		m, err := bnn.NewModel(n, servedSeed)
		if err != nil {
			return nil, err
		}
		sm.singles = append(sm.singles, m)
	}
	for _, n := range searchColo {
		m, err := bnn.NewModel(n, servedSeed)
		if err != nil {
			return nil, err
		}
		sm.colo = append(sm.colo, m)
	}
	return sm, nil
}

// cycleStats is one cycle's outcome.
type cycleStats struct {
	seed   int64
	placed []placed
	steps  int
	dur    time.Duration // Σ search time, set-up excluded
	// Traced cycles only.
	scoreCalls, coloCalls int
	scoreDur, coloDur     time.Duration
	selfDur               time.Duration // search time not covered by Score
	hits                  int
	counters              sim.EvalCounters
	searches              int
}

func addCounters(a *sim.EvalCounters, b sim.EvalCounters) {
	a.Lookups += b.Lookups
	a.Hits += b.Hits
	a.Computes += b.Computes
	a.PoolBuilds += b.PoolBuilds
	a.PoolReuses += b.PoolReuses
}

// searchCycle runs the workload's four searches with one search seed.
func searchCycle(sm *searchModels, seed int64, traced bool) (*cycleStats, error) {
	cfg := eval.DefaultConfig()
	d, err := arch.ParseDesign("EinsteinBarrier")
	if err != nil {
		return nil, err
	}
	cs := &cycleStats{seed: seed}
	wrap := func(inner compiler.CachedEvaluator) (compiler.Evaluator, *timedEvaluator) {
		if !traced {
			return inner, nil
		}
		te := &timedEvaluator{inner: inner}
		return te, te
	}
	for _, m := range sm.singles {
		t := time.Now()
		s, err := sim.New(cfg.Arch, cfg.Costs)
		if err != nil {
			return nil, err
		}
		pe, err := s.PlacementEvaluator(searchBatch)
		if err != nil {
			return nil, err
		}
		ev, te := wrap(pe)
		sp, err := compiler.NewSearchPlacer(m, cfg.Arch, d, ev, compiler.SearchOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		c, err := compiler.CompileWith(m, cfg.Arch, d, compiler.Options{Placer: sp})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name(), err)
		}
		took := time.Since(t)
		cs.dur += took
		st := sp.Stats()
		cs.steps += st.Steps
		cs.searches++
		cs.placed = append(cs.placed, placed{Model: m.Name(), Best: st.BestScore, Fingerprint: c.Placement.Fingerprint()})
		if te != nil {
			cs.scoreCalls += te.calls
			cs.scoreDur += te.scored
			cs.selfDur += took - covered(te.spans)
			cs.hits += te.hits
			addCounters(&cs.counters, pe.Counters())
		}
	}

	// eval.SearchCoLocate over the pre-built models.
	t := time.Now()
	set, err := compiler.CompileSet(sm.colo, cfg.Arch, d, compiler.SetOptions{Placer: compiler.ShardPlacer{}})
	if err != nil {
		return nil, err
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, err
	}
	var best []float64
	for i, m := range sm.colo {
		tm := time.Now()
		se, err := simulator.SetEvaluator(set, i, searchBatch)
		if err != nil {
			return nil, err
		}
		ev, te := wrap(se)
		sp, err := compiler.NewSearchPlacer(m, cfg.Arch, d, ev, compiler.SearchOptions{Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		region := set[i].Placement.Region
		c, err := compiler.CompileWith(m, cfg.Arch, d, compiler.Options{Placer: sp, Region: &region})
		if err != nil {
			return nil, fmt.Errorf("%s/colocate: %w", m.Name(), err)
		}
		took := time.Since(tm)
		set[i] = c
		st := sp.Stats()
		cs.steps += st.Steps
		cs.searches++
		best = append(best, st.BestScore)
		if te != nil {
			cs.coloCalls += te.calls
			cs.coloDur += te.scored
			cs.selfDur += took - covered(te.spans)
			cs.hits += te.hits
			addCounters(&cs.counters, se.Counters())
		}
	}
	if _, err := simulator.NewEngineSet(set); err != nil {
		return nil, err
	}
	cs.dur += time.Since(t)
	for i, c := range set {
		cs.placed = append(cs.placed, placed{Model: "colo/" + c.ModelName, Best: best[i], Fingerprint: c.Placement.Fingerprint()})
	}
	return cs, nil
}

// coLocateDigest is the digest eval.SearchCoLocate itself produces for
// a seed: the reference the benchmark's co-location loop must match.
func coLocateDigest(seed int64) (string, error) {
	cfg := eval.DefaultConfig()
	cfg.Search = eval.SearchSpec{Seed: seed}
	d, err := arch.ParseDesign("EinsteinBarrier")
	if err != nil {
		return "", err
	}
	cs, _, ms, err := eval.SearchCoLocate(cfg, searchColo, d, searchBatch)
	if err != nil {
		return "", err
	}
	var ps []placed
	for i, c := range cs {
		ps = append(ps, placed{Model: "colo/" + c.ModelName, Best: ms[i].Stats.BestScore, Fingerprint: c.Placement.Fingerprint()})
	}
	return digest(ps), nil
}

// searchPhase runs cycles, rotating over seeds, for span, and checks
// every cycle's digest against the recorded one.
func searchPhase(sm *searchModels, seeds []int64, golden map[int64]string, span time.Duration, traced bool, rep *report) ([]*cycleStats, error) {
	var cycles []*cycleStats
	mismatches := 0
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < span; k++ {
		seed := seeds[k%len(seeds)]
		cs, err := searchCycle(sm, seed, traced)
		if err != nil {
			return nil, err
		}
		if digest(cs.placed) != golden[seed] {
			mismatches++
		}
		cycles = append(cycles, cs)
	}
	if mismatches > 0 {
		rep.problem("search: %d of %d cycles returned a placement digest other than the recorded one (traced %v)", mismatches, len(cycles), traced)
	}
	return cycles, nil
}

// printDigests prints each seed's digest and what it is made of, from
// the seed's first cycle (the others are checked equal to it).
func printDigests(o options, cycles []*cycleStats) {
	seen := map[int64]bool{}
	for _, c := range cycles {
		if seen[c.seed] {
			continue
		}
		seen[c.seed] = true
		fmt.Fprintf(o.out, "  digest seed %2d: %s\n", c.seed, digest(c.placed))
		for _, p := range c.placed {
			fmt.Fprintf(o.out, "    %-10s best %-20s %s\n", p.Model, strconv.FormatFloat(p.Best, 'g', -1, 64), p.Fingerprint)
		}
	}
}

type searchStats struct {
	cycles  int
	steps   int
	lat     latencySummary
	perSec  float64
	searchT time.Duration
}

func summarizeSearch(cycles []*cycleStats) searchStats {
	var lat []float64
	var st searchStats
	for _, c := range cycles {
		lat = append(lat, ms(c.dur))
		st.steps += c.steps
		st.searchT += c.dur
	}
	st.cycles = len(cycles)
	st.lat = summarize(lat)
	st.perSec = float64(st.steps) / st.searchT.Seconds()
	return st
}

func (s searchStats) metrics() map[string]float64 {
	return map[string]float64{mP50: s.lat.p50, mRate: s.perSec}
}

func (s searchStats) print(o options) {
	printMetric(o.out, "search_steps_per_s", s.perSec, "1/s", fmt.Sprintf("%d steps in %d cycles", s.steps, s.cycles))
	printMetric(o.out, "cycle_p50_ms", s.lat.p50, "ms", "5 searches per cycle")
	printMetric(o.out, "cycle_p90_ms", s.lat.p90, "ms", "not gated")
}

func runSearch(o options) (*report, error) {
	rep := newReport()
	golden, err := goldenDigests()
	if err != nil {
		return nil, err
	}
	var sm *searchModels
	var setup []float64
	for i, start := 0, time.Now(); moreSetups(i, start); i++ {
		t := time.Now()
		if sm, err = synthSearchModels(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	setupS := median(setup)
	seeds := runSeeds(o.seed)
	fmt.Fprintf(o.out, "search: %v single-model + %v co-location, batch %d, search seeds in order %v\n",
		searchSingles, searchColo, searchBatch, seeds)
	for _, s := range seeds[:coloChecks] {
		cs, err := searchCycle(sm, s, false)
		if err != nil {
			return nil, err
		}
		colo, err := coLocateDigest(s)
		if err != nil {
			return nil, err
		}
		if colo != digest(cs.placed[len(searchSingles):]) {
			rep.problem("search seed %d: co-location loop differs from eval.SearchCoLocate", s)
		}
	}

	span := time.Duration(o.seconds) * time.Second
	cycles, err := searchPhase(sm, seeds, golden, span, false, rep)
	if err != nil {
		return nil, err
	}
	ss := summarizeSearch(cycles)
	printDigests(o, cycles)
	rep.attempted += len(cycles) * (len(searchSingles) + 1)
	rep.e2e = ss.metrics()
	rep.e2e[mSetup] = setupS
	ss.print(o)
	printMetric(o.out, "setup_s", setupS, "s", fmt.Sprintf("zoo synthesis, median of %d", len(setup)))
	if !o.trace {
		return rep, nil
	}

	tcycles, err := searchPhase(sm, seeds, golden, span, true, rep)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(tcycles) * (len(searchSingles) + 1)
	ts := summarizeSearch(tcycles)
	fmt.Fprintln(o.out, "traced phase:")
	ts.print(o)
	var calls, colo, hits, searches int
	var scoreT, coloT, self time.Duration
	var ctr sim.EvalCounters
	for _, c := range tcycles {
		calls += c.scoreCalls
		colo += c.coloCalls
		scoreT += c.scoreDur
		coloT += c.coloDur
		self += c.selfDur
		hits += c.hits
		searches += c.searches
		addCounters(&ctr, c.counters)
	}
	n := float64(len(tcycles))
	L := rep.layers
	L["eval.score_calls"] = float64(calls+colo) / n
	L["eval.cached_hits"] = float64(hits) / n
	if calls > 0 {
		L["eval.score_us.mean"] = float64(scoreT.Nanoseconds()) / 1e3 / float64(calls)
	}
	if colo > 0 {
		L["eval.colo_score_us.mean"] = float64(coloT.Nanoseconds()) / 1e3 / float64(colo)
	}
	L["eval.hit_ratio"] = ctr.HitRate()
	L["eval.pool_reuse_ratio"] = ctr.PoolReuseRate()
	L["search.self_ms"] = ms(self) / float64(searches)
	L["bnn.new_model_s"] = setupS
	t := time.Now()
	if _, err := synthSearchModels(); err != nil {
		return nil, err
	}
	overheads(L, rep.e2e, ts.metrics(), time.Since(t).Seconds())
	return rep, nil
}
