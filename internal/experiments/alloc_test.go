package experiments

import (
	"context"
	"runtime"
	"testing"

	"robusttomo/internal/engine"
	"robusttomo/internal/selection"
	"robusttomo/internal/topo"
)

// A warm MonteRoMe job of the monterome-as1755 benchmark's shape (AS1755,
// 400 candidate paths, a 1000-scenario panel, budget 0.75 × the cost of a
// basis), normalized and run through the selection engine as the service
// does, allocates at most 2 MB in at most 10,000 allocations. Most of a
// cold job's allocation used to be class-basis storage: a fresh basis per
// class split, grown row by row. Released oracles now hand their bases to
// the next job, which fills them by Reset and CopyFrom.
func TestMonteRoMeJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled class bases at random, so the bound does not apply")
	}
	in, err := BuildInstance(Workload{Preset: topo.AS1755, CandidatePaths: 400},
		Scale{Seed: 2014, ExpectedFailures: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([][]int, in.PM.NumPaths())
	for i := range paths {
		paths[i] = in.PM.EdgesOf(i)
	}
	eng, err := engine.Lookup(selection.EngineName)
	if err != nil {
		t.Fatal(err)
	}
	spec := engine.Spec{
		Engine: selection.EngineName, Links: in.PM.NumLinks(), Paths: paths, Probs: in.Model.Probs(),
		Costs: in.Costs, Budget: 0.75 * instanceBasisCost(in), Algorithm: selection.AlgMonteRoMe, MCRuns: 1000,
	}
	run := func(seed uint64) {
		spec.Seed = seed
		job, err := eng.Normalize(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	run(2)
	const jobs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := uint64(0); s < jobs; s++ {
		run(3 + s)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / jobs
	allocs := (after.Mallocs - before.Mallocs) / jobs
	t.Logf("warm MonteRoMe job: %d KB in %d allocations", bytes>>10, allocs)
	if bytes > 2<<20 || allocs > 10000 {
		t.Errorf("warm MonteRoMe job allocates %d KB in %d allocations, want at most 2048 KB and 10000", bytes>>10, allocs)
	}
}
