package er

import (
	"math/rand/v2"
	"sync"
	"testing"

	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// rocketfuelInstance materializes a seeded monitor placement on the AS1755
// Rocketfuel topology — the paper-scale workload class the kernel is built
// for — and returns its path matrix and failure model.
func rocketfuelInstance(tb testing.TB, candidates int, seed uint64) (*tomo.PathMatrix, *failure.Model) {
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
	return pm, model
}

// The bit-packed oracle must be bit-identical to the serial reference:
// every Gain, every Add delta and the running Value, across a growing
// committed set on Rocketfuel-subgraph instances.
func TestMonteCarloIncMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		pm, model := rocketfuelInstance(t, 120, seed)
		runs := 130 // straddles a word boundary (3 words, 2 bits of tail)
		kernel := NewMonteCarloInc(pm, model, runs, rand.New(rand.NewPCG(seed, 77)))
		serial := NewMonteCarloIncSerial(pm, model, runs, rand.New(rand.NewPCG(seed, 77)))
		if kernel.Runs() != runs {
			t.Fatalf("Runs = %d, want %d", kernel.Runs(), runs)
		}

		n := pm.NumPaths()
		pick := stats.NewRNG(seed, 99)
		for round := 0; round < 8; round++ {
			for q := 0; q < n; q++ {
				if got, want := kernel.Gain(q), serial.Gain(q); got != want {
					t.Fatalf("seed %d round %d: Gain(%d) = %v, serial %v", seed, round, q, got, want)
				}
			}
			q := pick.IntN(n)
			kernel.Add(q)
			serial.Add(q)
			if kernel.Value() != serial.Value() {
				t.Fatalf("seed %d round %d: Value = %v, serial %v", seed, round, kernel.Value(), serial.Value())
			}
		}
	}
}

// The batch estimator must match its serial reference exactly for the same
// rng seed: same scenario panel, same integer rank sum.
func TestMonteCarloMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		pm, model := rocketfuelInstance(t, 80, seed)
		idx := make([]int, pm.NumPaths())
		for i := range idx {
			idx[i] = i
		}
		for _, n := range []int{1, 64, 200, 500} {
			kernel := MonteCarlo(pm, model, idx, n, rand.New(rand.NewPCG(seed, 5)))
			serial := MonteCarloSerial(pm, model, idx, n, rand.New(rand.NewPCG(seed, 5)))
			if kernel != serial {
				t.Fatalf("seed %d n=%d: MonteCarlo = %v, serial %v", seed, n, kernel, serial)
			}
		}
	}
}

// Two oracles built from the same seed must evolve identically through an
// identical Gain/Add schedule — the determinism the sharded mask
// precompute guarantees via fixed per-path slots. Run under -race in CI to
// also prove the sharding is data-race-free.
func TestMonteCarloIncDeterministic(t *testing.T) {
	pm, model := rocketfuelInstance(t, 100, 7)
	run := func() (values []float64, gains []float64) {
		mc := NewMonteCarloInc(pm, model, 256, rand.New(rand.NewPCG(7, 7)))
		n := pm.NumPaths()
		for round := 0; round < 6; round++ {
			for q := 0; q < n; q++ {
				gains = append(gains, mc.Gain(q))
			}
			mc.Add((round * 13) % n)
			values = append(values, mc.Value())
		}
		return values, gains
	}
	v1, g1 := run()
	v2, g2 := run()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("Value diverged at step %d: %v vs %v", i, v1[i], v2[i])
		}
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("Gain diverged at probe %d: %v vs %v", i, g1[i], g2[i])
		}
	}
}

// The steady state of MonteCarloInc — Gain and the Add of an
// already-committed path (no class splits) — must allocate nothing.
// Splitting Adds may allocate (the new class's mask and memo slab, and a
// basis when the pool has none to hand out); everything else runs off warm
// slabs.
func TestMonteCarloIncSteadyStateZeroAlloc(t *testing.T) {
	pm, model := rocketfuelInstance(t, 120, 2)
	mc := NewMonteCarloInc(pm, model, 256, rand.New(rand.NewPCG(4, 4)))
	// Warm up: commit a few rows (splits allocate here, not later) and
	// touch every code path once.
	for q := 0; q < 6; q++ {
		mc.Add(q * 7)
	}
	for q := 0; q < pm.NumPaths(); q++ {
		mc.Gain(q)
	}
	if avg := testing.AllocsPerRun(100, func() {
		mc.Gain(11)
	}); avg != 0 {
		t.Errorf("Gain allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		mc.Add(7) // already committed: every class is homogeneous, no split
	}); avg != 0 {
		t.Errorf("splitless Add allocates %.2f allocs/op, want 0", avg)
	}
}

// Race soak for the pooled per-worker bases: concurrent MonteCarlo calls
// share the basis pool and the path matrix. Run under -race in CI; any
// sharing bug in the pool or the scenario panels shows up here.
func TestMonteCarloConcurrentCallsRace(t *testing.T) {
	pm, model := rocketfuelInstance(t, 100, 5)
	idx := idxUpTo(pm.NumPaths())
	var wg sync.WaitGroup
	results := make([]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = MonteCarlo(pm, model, idx, 300, rand.New(rand.NewPCG(uint64(g/2), 6)))
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		// Same seed from different goroutines must agree: pooled bases
		// carry no result-bearing residue between calls.
		want := MonteCarlo(pm, model, idx, 300, rand.New(rand.NewPCG(uint64(g/2), 6)))
		if results[g] != want {
			t.Fatalf("goroutine %d: concurrent MonteCarlo %v, sequential %v", g, results[g], want)
		}
	}
}

// Release hands the class bases back, so a released oracle must fail loudly
// instead of probing bases another oracle may now be extending: Gain and
// Add panic afterwards, whichever path they are asked about.
func TestMonteCarloIncUseAfterReleasePanics(t *testing.T) {
	pm, model := rocketfuelInstance(t, 60, 3)
	mc := NewMonteCarloInc(pm, model, 64, rand.New(rand.NewPCG(1, 2)))
	mc.Add(0)
	value := mc.Value()
	mc.Release()
	if mc.Value() != value || mc.Classes() != 0 {
		t.Fatalf("released oracle: Value %v (was %v), Classes %d", mc.Value(), value, mc.Classes())
	}
	for name, call := range map[string]func(){"Gain": func() { mc.Gain(1) }, "Add": func() { mc.Add(1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			call()
		}()
	}
}
