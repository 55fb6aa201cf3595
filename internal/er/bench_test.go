package er

import (
	"math/rand/v2"
	"testing"
)

func BenchmarkExactSmall(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	pm, model := randomInstance(rng, 10, 8)
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(pm, model, idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbBoundOracle(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 8))
	pm, model := randomInstance(rng, 60, 120)
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb := NewProbBoundInc(pm, model)
		for _, q := range idx {
			pb.Add(q)
		}
		if pb.Value() <= 0 {
			b.Fatal("degenerate bound")
		}
	}
}

func BenchmarkMonteCarloOracle(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	pm, model := randomInstance(rng, 60, 120)
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := NewMonteCarloInc(pm, model, 50, rand.New(rand.NewPCG(uint64(i), 3)))
		for _, q := range idx {
			mc.Add(q)
		}
		if mc.Value() <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
}

func BenchmarkMonteCarloBatch(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	pm, model := randomInstance(rng, 60, 120)
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MonteCarlo(pm, model, idx, 200, rand.New(rand.NewPCG(uint64(i), 4))) <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
}

// BenchmarkMonteCarlo and BenchmarkMonteCarloSerial time the bit-packed
// kernel against the scenario-major reference on a Rocketfuel topology at a
// 1000-scenario panel. cmd/benchregress pairs them into the speedup
// recorded in BENCH_selection.json; the "panel" metric carries the scenario
// count so scenario throughput can be derived from ns/op.
func BenchmarkMonteCarlo(b *testing.B) {
	pm, model := rocketfuelInstance(b, 150, 1)
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MonteCarlo(pm, model, idx, 1000, rand.New(rand.NewPCG(uint64(i), 4))) <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
	b.ReportMetric(1000, "panel") // after the loop: ResetTimer clears metrics
}

func BenchmarkMonteCarloSerial(b *testing.B) {
	pm, model := rocketfuelInstance(b, 150, 1)
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MonteCarloSerial(pm, model, idx, 1000, rand.New(rand.NewPCG(uint64(i), 4))) <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
	b.ReportMetric(1000, "panel")
}

// Incremental-oracle benchmarks at the same panel scale: a full greedy-like
// sweep (Gain every candidate, Add the best) repeated to a fixed depth.
func benchOracleSweep(b *testing.B, oracle func() Incremental, paths int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := oracle()
		for depth := 0; depth < 8; depth++ {
			best, bestGain := -1, -1.0
			for q := 0; q < paths; q++ {
				if g := mc.Gain(q); g > bestGain {
					best, bestGain = q, g
				}
			}
			mc.Add(best)
		}
		if mc.Value() <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
	b.ReportMetric(1000, "panel")
}

func BenchmarkMonteCarloInc(b *testing.B) {
	pm, model := rocketfuelInstance(b, 150, 2)
	benchOracleSweep(b, func() Incremental {
		return NewMonteCarloInc(pm, model, 1000, rand.New(rand.NewPCG(9, 9)))
	}, pm.NumPaths())
}

func BenchmarkMonteCarloIncSerial(b *testing.B) {
	pm, model := rocketfuelInstance(b, 150, 2)
	benchOracleSweep(b, func() Incremental {
		return NewMonteCarloIncSerial(pm, model, 1000, rand.New(rand.NewPCG(9, 9)))
	}, pm.NumPaths())
}

func BenchmarkThetaBoundOracle(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 11))
	pm, _ := randomInstance(rng, 60, 120)
	theta := make([]float64, pm.NumPaths())
	for i := range theta {
		theta[i] = rng.Float64()
	}
	idx := idxUpTo(pm.NumPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewThetaBoundInc(pm, theta)
		for _, q := range idx {
			tb.Add(q)
		}
	}
}
