package er

import (
	"math/rand/v2"
	"testing"

	"robusttomo/internal/failure"
	"robusttomo/internal/stats"
)

// The packed oracle fed a stateful Gilbert–Elliott source must
// stay bit-identical to the serial reference: the serial side expands the
// very panel the packed side drew (SampleScenarioSet + Scenarios), so
// burstiness in the panel cannot open a gap. Runs under -race in CI.
func TestMonteCarloIncGEMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 11} {
		pm, model := rocketfuelInstance(t, 100, seed)
		probs := model.Probs()
		for i, p := range probs {
			if p > 0.6 {
				probs[i] = 0.6
			}
		}
		cfg := failure.GEConfig{Marginals: probs, MeanBurst: 8, Seed: seed}
		// Two chains from the same config start in the same state;
		// identically seeded rngs then draw the same panel.
		geA, err := failure.NewGilbertElliott(cfg)
		if err != nil {
			t.Fatal(err)
		}
		geB, err := failure.NewGilbertElliott(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs := 130 // straddles a word boundary
		kernel := NewMonteCarloInc(pm, geA, runs, rand.New(rand.NewPCG(seed, 77)))
		serial := NewMonteCarloIncSerial(pm, geB, runs, rand.New(rand.NewPCG(seed, 77)))

		n := pm.NumPaths()
		pick := stats.NewRNG(seed, 99)
		for round := 0; round < 6; round++ {
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

// The node-failure source takes the scenario-major panel path (it is not a
// ColumnSampler); packed and serial oracles must still agree exactly.
func TestMonteCarloIncNodeSourceMatchesSerial(t *testing.T) {
	pm, _ := rocketfuelInstance(t, 80, 5)
	links := pm.NumLinks()
	incidence := make([][]int, links)
	probs := make([]float64, links)
	for l := 0; l < links; l++ {
		incidence[l] = []int{l, (l + 1) % links}
		probs[l] = 0.01
	}
	build := func() *failure.NodeFailureModel {
		m, err := failure.NewNodeFailureModel(failure.NodeFailureConfig{
			Links: links, Incidence: incidence, NodeProbs: probs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	runs := 96
	kernel := NewMonteCarloInc(pm, build(), runs, rand.New(rand.NewPCG(3, 77)))
	serial := NewMonteCarloIncSerial(pm, build(), runs, rand.New(rand.NewPCG(3, 77)))
	n := pm.NumPaths()
	for round := 0; round < 4; round++ {
		for q := 0; q < n; q++ {
			if got, want := kernel.Gain(q), serial.Gain(q); got != want {
				t.Fatalf("round %d: Gain(%d) = %v, serial %v", round, q, got, want)
			}
		}
		kernel.Add(round)
		serial.Add(round)
		if kernel.Value() != serial.Value() {
			t.Fatalf("round %d: Value = %v, serial %v", round, kernel.Value(), serial.Value())
		}
	}
}
