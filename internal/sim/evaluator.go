package sim

import (
	"fmt"
	"sync"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
)

// Engine-backed placement evaluators: the objective functions behind
// compiler.SearchPlacer. Both price candidates with the pipeline engine
// itself — RunBatch for a single model, RunSet for a co-located set —
// and memoize on the placement's canonical fingerprint, generalizing
// serve.Pricer's batch-size memoization to layouts. Neighborhood moves
// revisit layouts constantly (a border shift clamps back to the
// incumbent, annealing walks retrace themselves), so the cache is what
// makes engine-in-the-loop search affordable; BenchmarkPlacerSearch
// pins the hit rate.
//
// Cache misses are engineered to be cheap too: each evaluator keeps a
// pool of idle engines (engine sets) keyed on the compiled program's
// structural shape and re-prices a pooled engine (Engine.Reprice /
// EngineSet.Swap) instead of rebuilding calendars and stages per
// candidate. Concurrent misses on one fingerprint are not collapsed:
// SearchPlacer already dedups a round's misses, and a duplicate
// compute is deterministic and stores the same value.

// EvalCounters reports what an evaluator did: cache effectiveness and
// engine-pool reuse. Hits counts memo hits (lookups that did not pay a
// schedule). PoolBuilds/PoolReuses split the computes by whether they
// constructed an engine or re-priced a pooled one.
type EvalCounters struct {
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Computes   int64 `json:"computes"`
	PoolBuilds int64 `json:"pool_builds"`
	PoolReuses int64 `json:"pool_reuses"`
}

// HitRate is Hits/Lookups (0 before the first lookup).
func (ec EvalCounters) HitRate() float64 {
	if ec.Lookups == 0 {
		return 0
	}
	return float64(ec.Hits) / float64(ec.Lookups)
}

// PoolReuseRate is PoolReuses/Computes (0 before the first compute).
func (ec EvalCounters) PoolReuseRate() float64 {
	if ec.Computes == 0 {
		return 0
	}
	return float64(ec.PoolReuses) / float64(ec.Computes)
}

// evalCache is the bookkeeping both evaluators share: a memo of priced
// values, a pool of idle engines keyed by structural shape, and the
// counters, all under one mutex. The engine work itself runs unlocked.
type evalCache[V, E any] struct {
	mu       sync.Mutex
	memo     map[string]V
	pool     map[string][]E
	counters EvalCounters
}

// probe reports a memoized value without computing. A hit counts as a
// lookup+hit; a miss counts nothing (the get that follows records it).
func (ec *evalCache[V, E]) probe(key string) (V, bool) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	v, ok := ec.memo[key]
	if ok {
		ec.counters.Lookups++
		ec.counters.Hits++
	}
	return v, ok
}

// get returns key's value from the memo, or computes it. compute gets a
// pooled engine of the given shape (pooled=true) or the zero E, in
// which case it must build one; it returns the value and the engine to
// pool. On error the engine's state is undefined, so it is dropped.
func (ec *evalCache[V, E]) get(key, shape string, compute func(eng E, pooled bool) (V, E, error)) (V, error) {
	ec.mu.Lock()
	if ec.memo == nil {
		ec.memo, ec.pool = map[string]V{}, map[string][]E{}
	}
	ec.counters.Lookups++
	if v, ok := ec.memo[key]; ok {
		ec.counters.Hits++
		ec.mu.Unlock()
		return v, nil
	}
	var eng E
	idle := ec.pool[shape]
	pooled := len(idle) > 0
	if pooled {
		eng = idle[len(idle)-1]
		ec.pool[shape] = idle[:len(idle)-1]
	}
	ec.mu.Unlock()

	v, eng, err := compute(eng, pooled)
	if err != nil {
		return v, err
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.memo[key] = v
	ec.pool[shape] = append(ec.pool[shape], eng)
	ec.counters.Computes++
	if pooled {
		ec.counters.PoolReuses++
	} else {
		ec.counters.PoolBuilds++
	}
	return v, nil
}

// Counters returns a snapshot of the evaluator's perf counters.
func (ec *evalCache[V, E]) Counters() EvalCounters {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.counters
}

// PlacementEvaluator scores one model's candidate placements by batch
// throughput. Safe for concurrent use.
type PlacementEvaluator struct {
	evalCache[*BatchResult, *Engine] // evaluator-owned result clones

	s     *Simulator
	batch int
}

// PlacementEvaluator builds an evaluator that prices candidates with
// Engine.RunBatch at the given batch size.
func (s *Simulator) PlacementEvaluator(batch int) (*PlacementEvaluator, error) {
	if batch < 1 {
		return nil, fmt.Errorf("sim: evaluator batch %d must be ≥ 1", batch)
	}
	return &PlacementEvaluator{s: s, batch: batch}, nil
}

// Batch returns the objective batch size.
func (pe *PlacementEvaluator) Batch() int { return pe.batch }

// Score implements compiler.Evaluator: measured inf/s of the candidate
// at the evaluator's batch size.
func (pe *PlacementEvaluator) Score(c *compiler.Compiled) (float64, error) {
	br, err := pe.Result(c)
	if err != nil {
		return 0, err
	}
	return br.ThroughputPerSec, nil
}

// CachedScore implements compiler.CachedEvaluator: it reports a
// previously priced layout's objective from the fingerprint memo alone,
// letting the search placer skip candidate compilation entirely on
// revisits.
func (pe *PlacementEvaluator) CachedScore(model string, design arch.Design, p *compiler.Placement) (float64, bool) {
	br, ok := pe.probe(model + "/" + design.String() + "/" + p.Fingerprint())
	if !ok {
		return 0, false
	}
	return br.ThroughputPerSec, true
}

// Result returns the full BatchResult of a candidate, from the cache
// when its placement fingerprint was priced before. Callers must treat
// the result as read-only — it is shared across cache hits.
func (pe *PlacementEvaluator) Result(c *compiler.Compiled) (*BatchResult, error) {
	if c.Placement == nil {
		return nil, fmt.Errorf("sim: compiled %s has no placement to fingerprint", c.ModelName)
	}
	// Engines are interchangeable across candidates of one (model,
	// design): the stage structure is fixed, only placements differ.
	shape := c.ModelName + "/" + c.Design.String()
	return pe.get(shape+"/"+c.Placement.Fingerprint(), shape,
		func(eng *Engine, pooled bool) (*BatchResult, *Engine, error) {
			var err error
			if pooled {
				err = eng.Reprice(c)
			} else {
				eng, err = pe.s.NewEngine(c)
			}
			if err != nil {
				return nil, nil, err
			}
			br, err := eng.RunBatch(pe.batch)
			if err != nil {
				return nil, nil, err
			}
			return br.Clone(), eng, nil
		})
}

// SetEvaluator scores candidate placements of ONE model of a co-located
// set by the whole fabric's interference-aware objective: the set's
// aggregate throughput penalized by Jain fairness (AggregatePerSec ×
// FairnessJain), so a layout that speeds its own model up by starving a
// neighbor's NoC paths does not win. The other models' compilations are
// fixed for the evaluator's lifetime; co-location search runs one
// evaluator per model (coordinate descent, eval.SearchCoLocate).
type SetEvaluator struct {
	evalCache[float64, *EngineSet] // one shape: every set is built from the same base

	s     *Simulator
	set   []*compiler.Compiled
	idx   int
	batch int
}

// SetEvaluator builds the co-location objective for slot idx of the
// set. The set slice is captured by copy; candidates replace slot idx.
func (s *Simulator) SetEvaluator(set []*compiler.Compiled, idx, batch int) (*SetEvaluator, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("sim: set evaluator needs a non-empty set")
	}
	if idx < 0 || idx >= len(set) {
		return nil, fmt.Errorf("sim: set evaluator slot %d outside set of %d", idx, len(set))
	}
	if batch < 1 {
		return nil, fmt.Errorf("sim: evaluator batch %d must be ≥ 1", batch)
	}
	cp := make([]*compiler.Compiled, len(set))
	copy(cp, set)
	return &SetEvaluator{s: s, set: cp, idx: idx, batch: batch}, nil
}

// Score implements compiler.Evaluator: AggregatePerSec × FairnessJain
// of the set with the candidate in its slot.
func (se *SetEvaluator) Score(c *compiler.Compiled) (float64, error) {
	if c.Placement == nil {
		return 0, fmt.Errorf("sim: compiled %s has no placement to fingerprint", c.ModelName)
	}
	// The other slots are fixed, so the candidate's fingerprint alone
	// keys the memo.
	return se.get(c.Placement.Fingerprint(), "",
		func(es *EngineSet, pooled bool) (float64, *EngineSet, error) {
			if !pooled {
				// The base set (incumbent in the slot) compiles once; Swap
				// below re-prices the slot with the candidate.
				var err error
				if es, err = se.s.NewEngineSet(se.set); err != nil {
					return 0, nil, err
				}
			}
			if err := es.Swap(se.idx, c); err != nil {
				return 0, nil, err
			}
			sr, err := es.RunSet(se.batch)
			if err != nil {
				return 0, nil, err
			}
			return sr.AggregatePerSec * sr.FairnessJain, es, nil
		})
}

// CachedScore implements compiler.CachedEvaluator (the model/design
// arguments are ignored: a SetEvaluator is bound to one slot of one
// set, and the memo is keyed by candidate fingerprint alone).
func (se *SetEvaluator) CachedScore(_ string, _ arch.Design, p *compiler.Placement) (float64, bool) {
	return se.probe(p.Fingerprint())
}
