package tomo

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(0); err == nil {
		t.Fatal("zero paths accepted")
	}
	if _, err := NewAggregator(-1); err == nil {
		t.Fatal("negative paths accepted")
	}
}

func TestAggregatorMeanAndStd(t *testing.T) {
	a, err := NewAggregator(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		if err := a.Observe(0, v); err != nil {
			t.Fatal(err)
		}
	}
	mean, ok := a.Mean(0)
	if !ok || mean != 5 {
		t.Fatalf("Mean = %v, %v", mean, ok)
	}
	// Sample std of this classic sequence is sqrt(32/7).
	if got := a.StdDev(0); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
	if a.Count(0) != 8 {
		t.Fatalf("Count = %d", a.Count(0))
	}
	if _, ok := a.Mean(1); ok {
		t.Fatal("unobserved path reported a mean")
	}
	if a.StdDev(1) != 0 {
		t.Fatal("unobserved path reported spread")
	}
}

func TestAggregatorObserveValidation(t *testing.T) {
	a, _ := NewAggregator(1)
	if err := a.Observe(-1, 1); err == nil {
		t.Fatal("negative path accepted")
	}
	if err := a.Observe(1, 1); err == nil {
		t.Fatal("out-of-range path accepted")
	}
}

// A NaN or infinite sample is an error naming the path and leaves the
// path's count, mean and spread untouched.
func TestAggregatorRejectsNonFinite(t *testing.T) {
	a, _ := NewAggregator(2)
	a.Observe(1, 2)
	a.Observe(1, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := a.Observe(1, bad)
		if err == nil || !strings.Contains(err.Error(), "path 1") {
			t.Fatalf("Observe(1, %v) = %v, want an error naming path 1", bad, err)
		}
		if m, _ := a.Mean(1); a.Count(1) != 2 || m != 3 || a.StdDev(1) != math.Sqrt2 {
			t.Fatalf("after %v: count %d, mean %v, std %v; want 2, 3, √2", bad, a.Count(1), m, a.StdDev(1))
		}
	}
}

func TestAggregatorCovered(t *testing.T) {
	a, _ := NewAggregator(3)
	a.Observe(0, 1)
	a.Observe(0, 2)
	a.Observe(2, 5)
	if got := a.Covered(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Covered(1) = %v", got)
	}
	if got := a.Covered(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Covered(2) = %v", got)
	}
	if got := a.Covered(0); len(got) != 2 {
		t.Fatalf("Covered(0) = %v (minSamples clamps to 1)", got)
	}
	idx, y := a.SystemInputs(1)
	if len(idx) != 2 || y[0] != 1.5 || y[1] != 5 {
		t.Fatalf("SystemInputs = %v %v", idx, y)
	}
}

func TestAggregatorFeedsSystem(t *testing.T) {
	// Noisy measurements averaged over many epochs recover link metrics.
	_, pm := examplePM(t)
	truth := make([]float64, pm.NumLinks())
	for i := range truth {
		truth[i] = 2 + float64(i)
	}
	clean, _ := pm.TrueMeasurements(truth)
	agg, err := NewAggregator(pm.NumPaths())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	const epochs = 4000
	for e := 0; e < epochs; e++ {
		for i := 0; i < pm.NumPaths(); i++ {
			noise := rng.NormFloat64() * 0.5
			if err := agg.Observe(i, clean[i]+noise); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx, y := agg.SystemInputs(epochs)
	// Averaged noise leaves small redundancy residuals; a loose tolerance
	// reconciles them.
	sys, err := NewSystemTol(pm, idx, y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	values, ident, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if !ident[j] {
			t.Fatalf("link %d not identifiable", j)
		}
		if math.Abs(values[j]-truth[j]) > 0.1 {
			t.Fatalf("link %d inferred %v, want ~%v", j, values[j], truth[j])
		}
	}
}

// Property: the running mean matches a direct average for random streams.
func TestAggregatorMatchesDirectMean(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		a, err := NewAggregator(1)
		if err != nil {
			return false
		}
		n := 1 + rng.IntN(60)
		sum := 0.0
		for i := 0; i < n; i++ {
			v := rng.Float64()*100 - 50
			sum += v
			if err := a.Observe(0, v); err != nil {
				return false
			}
		}
		mean, ok := a.Mean(0)
		return ok && math.Abs(mean-sum/float64(n)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
