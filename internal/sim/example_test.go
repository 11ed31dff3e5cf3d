package sim_test

import (
	"fmt"
	"log"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/sim"
)

// Engine-in-the-loop placement search: the simulator prices every
// candidate layout with Engine.RunBatch, and the search placer anneals
// over per-layer rectangle assignments, warm-started from the heuristic
// placers. Workers: 1 scores candidates serially, so the cache counters
// do not depend on scheduling. The zoo-wide comparison against the
// heuristics is `go run ./cmd/benchfig -fig placement`; one model's
// search drill-down is `go run ./cmd/ebsim -model MLP-L -placer search`.
func ExampleSimulator_PlacementEvaluator() {
	cfg := arch.DefaultConfig()
	model, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		log.Fatal(err)
	}
	simulator, err := sim.New(cfg, energy.DefaultCostParams())
	if err != nil {
		log.Fatal(err)
	}
	pe, err := simulator.PlacementEvaluator(256)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := compiler.NewSearchPlacer(model, cfg, arch.EinsteinBarrier, pe,
		compiler.SearchOptions{Seed: 1, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	c, err := compiler.CompileWith(model, cfg, arch.EinsteinBarrier, compiler.Options{Placer: sp})
	if err != nil {
		log.Fatal(err)
	}
	st := sp.Stats()
	ec := pe.Counters()
	fmt.Printf("best from %s after %d evaluations\n", st.BestFrom, st.Steps)
	fmt.Printf("cache: %d lookups, %d hits, %d engine builds\n", ec.Lookups, ec.Hits, ec.PoolBuilds)
	fmt.Println(c.Placement.Fingerprint())
	// Output:
	// best from mesh after 243 evaluations
	// cache: 156 lookups, 2 hits, 1 engine builds
	// r0+4:0,0,4x4!|n0@98:0,1|n0@32:2|n0@16:3|n0@1:4
}
