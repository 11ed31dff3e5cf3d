package eval

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/sim"
)

// Interference-aware co-location search. CoLocate carves the fabric
// into per-model regions and places each model with one heuristic;
// SearchCoLocate then improves the models one at a time (coordinate
// descent): model i's region is annealed with compiler.SearchPlacer
// against sim.SetEvaluator — the WHOLE set's aggregate throughput
// penalized by Jain fairness, with the other models' current layouts
// live on the fabric — so a layout that wins by starving a neighbour's
// NoC paths does not win. The shard warm start reproduces each model's
// incumbent layout, so no pass can decrease the set objective.

// ModelSearch records one model's co-location search outcome.
type ModelSearch struct {
	Model string               `json:"model"`
	Stats compiler.SearchStats `json:"stats"`
	// Eval is the slot evaluator's perf accounting: cache hits and
	// engine-set pool reuse.
	Eval sim.EvalCounters `json:"eval"`
}

// SearchCoLocate co-locates the named models like CoLocate with the
// shard placer, then runs one coordinate-descent pass of annealing per
// model under the set objective at the given batch size
// (cfg.Search.Batch overrides when non-zero). Model i uses seed
// cfg.Search.Seed+i so the searches explore independent neighborhoods.
// Deterministic: a pure function of (cfg, names, d, batch).
func SearchCoLocate(cfg Config, names []string, d arch.Design, batch int) ([]*compiler.Compiled, *sim.EngineSet, []ModelSearch, error) {
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("eval: no models to co-locate")
	}
	if batch < 1 {
		return nil, nil, nil, fmt.Errorf("eval: batch %d must be ≥ 1", batch)
	}
	if _, err := d.Spec(); err != nil {
		return nil, nil, nil, fmt.Errorf("eval: %w", err)
	}
	var models []*bnn.Model
	for _, n := range names {
		m, err := bnn.NewModel(n, cfg.Seed)
		if err != nil {
			return nil, nil, nil, err
		}
		models = append(models, m)
	}
	cs, err := compiler.CompileSet(models, cfg.Arch, d, compiler.SetOptions{Placer: compiler.ShardPlacer{}})
	if err != nil {
		return nil, nil, nil, err
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, nil, nil, err
	}
	sb := cfg.Search.Batch
	if sb == 0 {
		sb = batch
	}
	seed := cfg.Search.Seed
	if seed == 0 {
		seed = 1
	}
	var trace []ModelSearch
	for i, m := range models {
		se, err := simulator.SetEvaluator(cs, i, sb)
		if err != nil {
			return nil, nil, nil, err
		}
		sp, err := compiler.NewSearchPlacer(m, cfg.Arch, d, se, compiler.SearchOptions{
			Steps: cfg.Search.Steps, Seed: seed + int64(i), Workers: cfg.Workers,
			Trace: cfg.Search.Trace,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		// Search only inside the model's carved region — every candidate
		// stays tile-disjoint from the neighbours by construction.
		region := cs[i].Placement.Region
		c, err := compiler.CompileWith(m, cfg.Arch, d, compiler.Options{Placer: sp, Region: &region})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("eval: %s/search: %w", m.Name(), err)
		}
		cs[i] = c
		trace = append(trace, ModelSearch{Model: m.Name(), Stats: sp.Stats(), Eval: se.Counters()})
	}
	es, err := simulator.NewEngineSet(cs)
	if err != nil {
		return nil, nil, nil, err
	}
	return cs, es, trace, nil
}
