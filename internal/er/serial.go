package er

import (
	"math/rand/v2"

	"robusttomo/internal/failure"
	"robusttomo/internal/linalg"
	"robusttomo/internal/tomo"
)

// This file keeps the original scenario-major Monte Carlo implementations
// as executable references for the bit-packed kernel in montecarlo.go. The
// kernel is required to be bit-identical to these (equivalence tests in
// kernel_test.go), which is what makes the packed fast path safe to use
// everywhere the serial oracle was.

// serialPanel draws the exact scenario panel a packed kernel would draw
// from the same rng state — through SampleScenarioSet (so column-sampling
// models consume the rng identically) — and expands it to scenario-major
// form for the reference walks.
func serialPanel(model failure.Sampler, rng *rand.Rand, n int) []failure.Scenario {
	set, err := failure.SampleScenarioSet(model, rng, n)
	if err != nil {
		panic("er: " + err.Error())
	}
	return set.Scenarios()
}

// MonteCarloSerial estimates ER(R) exactly like MonteCarlo but walks every
// scenario's bool failure vector on one goroutine. Given the same rng
// state, MonteCarlo returns the identical value.
func MonteCarloSerial(pm *tomo.PathMatrix, model failure.Sampler, idx []int, n int, rng *rand.Rand) float64 {
	if len(idx) == 0 || n <= 0 {
		return 0
	}
	scenarios := serialPanel(model, rng, n)
	sum := 0
	for _, sc := range scenarios {
		sum += pm.RankUnder(idx, sc)
	}
	return float64(sum) / float64(n)
}

// serialMonteCarloInc is the pre-kernel MonteCarloInc: scenario-major
// storage, per-edge availability walks, allocating Dependent probes.
type serialMonteCarloInc struct {
	pm        *tomo.PathMatrix
	scenarios []failure.Scenario
	bases     []*linalg.SparseBasis
	value     float64
}

var _ Incremental = (*serialMonteCarloInc)(nil)

// NewMonteCarloIncSerial draws runs scenarios from the model and returns
// the serial reference oracle: one basis per scenario, no class sharing,
// no packing. It consumes the rng exactly like NewMonteCarloInc, so equal
// seeds give equal panels.
func NewMonteCarloIncSerial(pm *tomo.PathMatrix, model failure.Sampler, runs int, rng *rand.Rand) Incremental {
	scenarios := serialPanel(model, rng, runs)
	bases := make([]*linalg.SparseBasis, runs)
	for i := range bases {
		bases[i] = linalg.NewSparseBasis(pm.NumLinks())
	}
	return &serialMonteCarloInc{pm: pm, scenarios: scenarios, bases: bases}
}

func (mc *serialMonteCarloInc) Gain(path int) float64 {
	cols, vals := mc.pm.SparseRow(path)
	hits := 0
	for s, sc := range mc.scenarios {
		if !mc.pm.Available(path, sc) {
			continue
		}
		if dep, _ := mc.bases[s].Dependent(cols, vals, nil); !dep {
			hits++
		}
	}
	return float64(hits) / float64(len(mc.scenarios))
}

func (mc *serialMonteCarloInc) Add(path int) {
	cols, vals := mc.pm.SparseRow(path)
	hits := 0
	for s, sc := range mc.scenarios {
		if !mc.pm.Available(path, sc) {
			continue
		}
		if added, _, _ := mc.bases[s].Add(cols, vals); added {
			hits++
		}
	}
	mc.value += float64(hits) / float64(len(mc.scenarios))
}

func (mc *serialMonteCarloInc) Value() float64 { return mc.value }
