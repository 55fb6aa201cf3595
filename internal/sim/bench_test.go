package sim

import (
	"context"
	"testing"

	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

func benchConfig(tb testing.TB, mode Mode, horizon int) Config {
	tb.Helper()
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		tb.Fatal(err)
	}
	pm, err := tomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		tb.Fatal(err)
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		tb.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	metrics := make([]float64, pm.NumLinks())
	for i := range metrics {
		metrics[i] = 1
	}
	return Config{
		PM: pm, Costs: costs, Budget: 8, Metrics: metrics,
		Failures: model, Horizon: horizon, Mode: mode, Model: model, Seed: 1,
	}
}

func BenchmarkStaticEpoch(b *testing.B) {
	r, err := New(benchConfig(b, Static, b.N+1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLearningEpoch(b *testing.B) {
	r, err := New(benchConfig(b, Learning, b.N+1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
