package bandit

import (
	"math/rand/v2"
	"testing"

	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// randomLearnerInstance builds a medium-sized random instance for the
// fresh-vs-incremental differential tests and steady-state benchmarks:
// nPaths paths of 1–4 distinct links over nLinks links, with moderate
// per-link failure probabilities.
func randomLearnerInstance(rng *rand.Rand, nLinks, nPaths int) (*tomo.PathMatrix, *failure.Model) {
	paths := make([]routing.Path, nPaths)
	for i := range paths {
		hops := 1 + rng.IntN(4)
		if hops > nLinks {
			hops = nLinks
		}
		paths[i] = synthPath(stats.SampleWithoutReplacement(rng, nLinks, hops)...)
	}
	pm, err := tomo.NewPathMatrix(paths, nLinks)
	if err != nil {
		panic(err)
	}
	probs := make([]float64, nLinks)
	for i := range probs {
		probs[i] = rng.Float64() * 0.3
	}
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		panic(err)
	}
	return pm, model
}

// The epoch-incremental engine must be a pure performance change: against
// identically seeded environments, the rebuild-every-epoch reference
// (freshLSR) and the incremental engine produce bit-identical action
// sequences, rewards and estimates over a horizon long past
// initialization.
func TestLSRFreshMatchesIncremental(t *testing.T) {
	for _, seed := range []uint64{3, 17, 41} {
		rng := stats.NewRNG(seed, 90)
		pm, model := randomLearnerInstance(rng, 20, 30)
		costs := make([]float64, pm.NumPaths())
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(3))
		}
		const budget = 8.0

		inc, err := New(pm, costs, budget, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(pm, costs, budget, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh := freshLSR{ref}
		envInc := NewFailureEnv(pm, model, stats.NewRNG(seed, 91))
		envFresh := NewFailureEnv(pm, model, stats.NewRNG(seed, 91))

		for epoch := 0; epoch < 120; epoch++ {
			aInc, rInc, err := inc.Step(envInc)
			if err != nil {
				t.Fatal(err)
			}
			aFresh, rFresh, err := fresh.Step(envFresh)
			if err != nil {
				t.Fatal(err)
			}
			if len(aInc) != len(aFresh) {
				t.Fatalf("seed %d epoch %d: action %v vs %v", seed, epoch, aInc, aFresh)
			}
			for i := range aInc {
				if aInc[i] != aFresh[i] {
					t.Fatalf("seed %d epoch %d: action %v vs %v", seed, epoch, aInc, aFresh)
				}
			}
			if rInc != rFresh {
				t.Fatalf("seed %d epoch %d: reward %d vs %d", seed, epoch, rInc, rFresh)
			}
		}
		if inc.CumulativeReward() != fresh.CumulativeReward() {
			t.Fatalf("seed %d: cumulative reward %v vs %v", seed, inc.CumulativeReward(), fresh.CumulativeReward())
		}
		thInc, thFresh := inc.ThetaHat(), fresh.ThetaHat()
		for i := range thInc {
			if thInc[i] != thFresh[i] {
				t.Fatalf("seed %d: theta-hat[%d] %v vs %v", seed, i, thInc[i], thFresh[i])
			}
		}
		exInc, err := inc.Exploit()
		if err != nil {
			t.Fatal(err)
		}
		exFresh, err := fresh.Exploit()
		if err != nil {
			t.Fatal(err)
		}
		if len(exInc) != len(exFresh) {
			t.Fatalf("seed %d: exploit %v vs %v", seed, exInc, exFresh)
		}
		for i := range exInc {
			if exInc[i] != exFresh[i] {
				t.Fatalf("seed %d: exploit %v vs %v", seed, exInc, exFresh)
			}
		}
	}
}

// Observe must not retain the caller's action slice or hand back aliased
// memory across epochs: actions returned by SelectAction stay valid after
// later epochs run.
func TestLSRActionsRemainValid(t *testing.T) {
	rng := stats.NewRNG(5, 92)
	pm, model := randomLearnerInstance(rng, 12, 16)
	learner, err := New(pm, unitCosts(pm.NumPaths()), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(5, 93))
	var history [][]int
	var copies [][]int
	for epoch := 0; epoch < 40; epoch++ {
		action, _, err := learner.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, action)
		copies = append(copies, append([]int(nil), action...))
	}
	for e := range history {
		for i := range history[e] {
			if history[e][i] != copies[e][i] {
				t.Fatalf("epoch %d action mutated: %v vs %v", e, history[e], copies[e])
			}
		}
	}
}
