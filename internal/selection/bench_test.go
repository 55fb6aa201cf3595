package selection

import (
	"math/rand/v2"
	"testing"

	"robusttomo/internal/er"
)

func BenchmarkRoMeProbBoundLazy(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	pm, model := randomInstance(rng, 80, 200)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1 + float64(rng.IntN(5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RoMe(pm, costs, 120, er.NewProbBoundInc(pm, model), Options{Lazy: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoMeProbBoundNaive(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	pm, model := randomInstance(rng, 80, 200)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1 + float64(rng.IntN(5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RoMe(pm, costs, 120, er.NewProbBoundInc(pm, model), Options{Lazy: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteRoMe and BenchmarkMonteRoMeSerial time the full MonteRoMe
// greedy — selection loop plus ER oracle — on a Rocketfuel topology at a
// 1000-scenario panel: the lazy greedy over the bit-packed oracle against
// the same greedy over the serial reference oracle.
// cmd/benchregress pairs them into the speedup recorded in
// BENCH_selection.json.
func BenchmarkMonteRoMe(b *testing.B) {
	pm, model, costs := rocketfuelSelection(b, 150, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := er.NewMonteCarloInc(pm, model, 1000, rand.New(rand.NewPCG(uint64(i), 6)))
		if _, err := RoMe(pm, costs, 25, oracle, NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "panel") // after the loop: ResetTimer clears metrics
}

func BenchmarkMonteRoMeSerial(b *testing.B) {
	pm, model, costs := rocketfuelSelection(b, 150, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle := er.NewMonteCarloIncSerial(pm, model, 1000, rand.New(rand.NewPCG(uint64(i), 6)))
		if _, err := RoMe(pm, costs, 25, oracle, Options{Lazy: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "panel")
}

func BenchmarkMatRoMe(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	pm, model := randomInstance(rng, 80, 200)
	ea := er.Availabilities(pm, model)
	budget := pm.Rank()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatRoMe(pm, ea, budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectPathBasis(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	pm, _ := randomInstance(rng, 80, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sel := SelectPath(pm); len(sel) == 0 {
			b.Fatal("empty basis")
		}
	}
}

func BenchmarkKnapsackDP(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	n := 200
	values := make([]float64, n)
	weights := make([]int, n)
	for i := range values {
		values[i] = rng.Float64()
		weights[i] = 1 + rng.IntN(20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KnapsackDP(values, weights, 500); err != nil {
			b.Fatal(err)
		}
	}
}
