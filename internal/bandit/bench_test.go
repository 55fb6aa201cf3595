package bandit

import (
	"testing"

	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

func benchInstance(b *testing.B) (*tomo.PathMatrix, *failure.Model) {
	b.Helper()
	paths := []routing.Path{
		synthPath(0),
		synthPath(1),
		synthPath(2),
		synthPath(0, 1),
		synthPath(3, 4),
		synthPath(5),
	}
	pm, err := tomo.NewPathMatrix(paths, 6)
	if err != nil {
		b.Fatal(err)
	}
	model, err := failure.FromProbabilities([]float64{0.05, 0.1, 0.6, 0.2, 0.2, 0.02})
	if err != nil {
		b.Fatal(err)
	}
	return pm, model
}

func benchUnitCosts(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func BenchmarkLSREpoch(b *testing.B) {
	pm, model := benchInstance(b)
	learner, err := New(pm, benchUnitCosts(pm.NumPaths()), 3, Options{})
	if err != nil {
		b.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := learner.Step(env); err != nil {
			b.Fatal(err)
		}
	}
}

// epochLearner is the per-epoch surface shared by the learner and its
// rebuild-every-epoch reference.
type epochLearner interface {
	SelectAction() ([]int, error)
	Observe(action []int, avail []bool) (int, error)
}

// steadyLearner builds a 64-path learner, runs it past the initialization
// phase (every path observed at least once), and pre-draws a panel of
// availability epochs, so the benchmark loop below measures only the
// learner's steady-state epoch — the regime the epoch-incremental engine
// targets, where the fresh reference pays O(n) allocation per epoch and
// the incremental engine O(played paths). With fresh set, the warmed
// learner is driven through freshLSR.
func steadyLearner(b *testing.B, fresh bool) (epochLearner, [][]bool) {
	b.Helper()
	rng := stats.NewRNG(7, 94)
	pm, model := randomLearnerInstance(rng, 40, 64)
	learner, err := New(pm, benchUnitCosts(pm.NumPaths()), 10, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var el epochLearner = learner
	if fresh {
		el = freshLSR{learner}
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(7, 95))
	for learner.unobserved() >= 0 {
		action, err := el.SelectAction()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := el.Observe(action, env.Epoch()); err != nil {
			b.Fatal(err)
		}
	}
	epochs := make([][]bool, 256)
	for i := range epochs {
		epochs[i] = env.Epoch()
	}
	return el, epochs
}

// benchSteadyEpochs times steady-state epochs of a warmed learner.
func benchSteadyEpochs(b *testing.B, fresh bool) {
	learner, epochs := steadyLearner(b, fresh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		action, err := learner.SelectAction()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := learner.Observe(action, epochs[i%len(epochs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSREpochSteady measures one steady-state epoch of the
// incremental engine; BenchmarkLSREpochSteadyFresh is the identical
// workload on the rebuild-every-epoch reference (benchregress pairs them by
// the Fresh suffix). The differential test TestLSRFreshMatchesIncremental
// guarantees both compute the same action sequence.
func BenchmarkLSREpochSteady(b *testing.B) { benchSteadyEpochs(b, false) }

func BenchmarkLSREpochSteadyFresh(b *testing.B) { benchSteadyEpochs(b, true) }

func BenchmarkLSRMatroidEpoch(b *testing.B) {
	pm, model := benchInstance(b)
	learner, err := New(pm, benchUnitCosts(pm.NumPaths()), 3, Options{Matroid: true, MatroidBudget: 3})
	if err != nil {
		b.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(2, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := learner.Step(env); err != nil {
			b.Fatal(err)
		}
	}
}
