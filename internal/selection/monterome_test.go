package selection

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// rocketfuelSelection builds a seeded monitor placement on the AS1755
// Rocketfuel topology with per-path costs — the paper-scale MonteRoMe
// workload.
func rocketfuelSelection(tb testing.TB, candidates int, seed uint64) (*tomo.PathMatrix, *failure.Model, []float64) {
	tb.Helper()
	tp, err := topo.Preset(topo.AS1755)
	if err != nil {
		tb.Fatal(err)
	}
	k := 1
	for k*k < candidates {
		k++
	}
	pool := tp.Access
	if len(pool) < 2*k {
		pool = append(append([]graph.NodeID{}, tp.Access...), tp.Core...)
	}
	picked := stats.SampleWithoutReplacement(stats.NewRNG(seed, 0xF0), len(pool), 2*k)
	sources := make([]graph.NodeID, k)
	dests := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		sources[i] = pool[picked[i]]
		dests[i] = pool[picked[k+i]]
	}
	paths, err := routing.MonitorPairs(tp.Graph, sources, dests)
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) > candidates {
		paths = paths[:candidates]
	}
	pm, err := tomo.NewPathMatrix(paths, tp.Graph.NumEdges())
	if err != nil {
		tb.Fatal(err)
	}
	model, err := failure.NewModel(failure.Config{Links: tp.Graph.NumEdges(), ExpectedFailures: 3, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	costRNG := stats.NewRNG(seed, 0xC0)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1 + float64(costRNG.IntN(5))
	}
	return pm, model, costs
}

func sameResult(tb testing.TB, label string, got, want Result) {
	tb.Helper()
	if len(got.Selected) != len(want.Selected) {
		tb.Fatalf("%s: selected %v, want %v", label, got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			tb.Fatalf("%s: selected %v, want %v", label, got.Selected, want.Selected)
		}
	}
	if got.Cost != want.Cost {
		tb.Fatalf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
	if got.Objective != want.Objective {
		tb.Fatalf("%s: objective %v, want %v", label, got.Objective, want.Objective)
	}
	if got.GainEvaluations != want.GainEvaluations {
		tb.Fatalf("%s: gain evaluations %d, want %d", label, got.GainEvaluations, want.GainEvaluations)
	}
}

// End-to-end MonteRoMe equivalence: the greedy driving the bit-packed
// oracle must reproduce the greedy driving the serial reference oracle —
// same selection, same objective, same GainEvaluations.
func TestMonteRoMeKernelMatchesSerialOracle(t *testing.T) {
	for _, seed := range []uint64{2, 7} {
		pm, model, costs := rocketfuelSelection(t, 100, seed)
		budget := 20.0
		kernel := er.NewMonteCarloInc(pm, model, 130, rand.New(rand.NewPCG(seed, 3)))
		serial := er.NewMonteCarloIncSerial(pm, model, 130, rand.New(rand.NewPCG(seed, 3)))
		resK, err := RoMe(pm, costs, budget, kernel, NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		resS, err := RoMe(pm, costs, budget, serial, Options{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "kernel vs serial oracle", resK, resS)
		if kernel.Value() != serial.Value() {
			t.Fatalf("oracle values diverged: %v vs %v", kernel.Value(), serial.Value())
		}
	}
}

// Two MonteRoMe runs from the same seed must agree exactly, and never
// report a speculative evaluation. Run under -race in CI to also prove the
// oracle's sharded mask precompute is data-race-free.
func TestMonteRoMeDeterministic(t *testing.T) {
	pm, model, costs := rocketfuelSelection(t, 110, 9)
	run := func() Result {
		oracle := er.NewMonteCarloInc(pm, model, 256, rand.New(rand.NewPCG(9, 1)))
		res, err := RoMe(pm, costs, 22, oracle, NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	sameResult(t, "repeat run", r1, r2)
	if r1.SpeculativeEvaluations != 0 {
		t.Fatalf("serial greedy reported %d speculative evaluations", r1.SpeculativeEvaluations)
	}
}

// Released oracles hand their class bases to a pool that concurrent
// MonteRoMe runs share. Four goroutines each build an oracle, run RoMe and
// Release it, three times over, on seeds paired across goroutines: every
// run must match a run from the same seed on an oracle that was never
// released, whichever recycled bases it drew. Run under -race in CI.
func TestMonteRoMeConcurrentRelease(t *testing.T) {
	pm, model, costs := rocketfuelSelection(t, 110, 9)
	run := func(seed uint64, release bool) (Result, error) {
		oracle := er.NewMonteCarloInc(pm, model, 256, rand.New(rand.NewPCG(seed, 1)))
		res, err := RoMe(pm, costs, 22, oracle, NewOptions())
		if release {
			oracle.Release()
		}
		return res, err
	}
	const goroutines, rounds = 4, 3
	results := make([][]Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				res, err := run(uint64(g%2), true)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], res)
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		want, err := run(uint64(g%2), false)
		if err != nil {
			t.Fatal(err)
		}
		for r, got := range results[g] {
			sameResult(t, fmt.Sprintf("goroutine %d round %d", g, r), got, want)
		}
	}
}
