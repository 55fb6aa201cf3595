package selection

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

func synthPath(links ...int) routing.Path {
	edges := make([]graph.EdgeID, len(links))
	for i, l := range links {
		edges[i] = graph.EdgeID(l)
	}
	return routing.Path{Src: 0, Dst: 1, Edges: edges}
}

func randomInstance(rng *rand.Rand, nLinks, nPaths int) (*tomo.PathMatrix, *failure.Model) {
	paths := make([]routing.Path, nPaths)
	for i := range paths {
		hops := 1 + rng.IntN(3)
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
		probs[i] = rng.Float64() * 0.4
	}
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		panic(err)
	}
	return pm, model
}

// exactInc adapts the exact ER computation to the Incremental interface
// for small-instance verification.
type exactInc struct {
	pm    *tomo.PathMatrix
	model *failure.Model
	idx   []int
	val   float64
}

func newExactInc(pm *tomo.PathMatrix, model *failure.Model) *exactInc {
	return &exactInc{pm: pm, model: model}
}

func (e *exactInc) Gain(q int) float64 {
	with, err := er.Exact(e.pm, e.model, append(append([]int{}, e.idx...), q))
	if err != nil {
		panic(err)
	}
	return with - e.val
}

func (e *exactInc) Add(q int) {
	e.idx = append(e.idx, q)
	v, err := er.Exact(e.pm, e.model, e.idx)
	if err != nil {
		panic(err)
	}
	e.val = v
}

func (e *exactInc) Value() float64 { return e.val }

func TestRoMeValidation(t *testing.T) {
	pm, model := randomInstance(rand.New(rand.NewPCG(1, 1)), 4, 3)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		costs  []float64
		budget float64
	}{
		{"cost length mismatch", []float64{1}, 10},
		{"negative cost", []float64{1, 1, -1}, 10},
		{"NaN cost", []float64{1, nan, 1}, 10},
		{"negative budget", []float64{1, 1, 1}, -1},
		{"NaN budget", []float64{1, 1, 1}, nan},
	} {
		if _, err := RoMe(pm, c.costs, c.budget, er.NewProbBoundInc(pm, model), NewOptions()); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// +Inf stays a valid cost and budget, as in the engine's Normalize.
	if _, err := RoMe(pm, []float64{1, inf, 1}, inf, er.NewProbBoundInc(pm, model), NewOptions()); err != nil {
		t.Errorf("+Inf cost and budget rejected: %v", err)
	}
}

func TestRoMeRespectsBudget(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		pm, model := randomInstance(rng, 8, 10)
		costs := make([]float64, pm.NumPaths())
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(5))
		}
		budget := 1 + float64(rng.IntN(15))
		res, err := RoMe(pm, costs, budget, er.NewProbBoundInc(pm, model), NewOptions())
		if err != nil {
			return false
		}
		total := 0.0
		seen := map[int]bool{}
		for _, q := range res.Selected {
			if seen[q] {
				return false // duplicates forbidden
			}
			seen[q] = true
			total += costs[q]
		}
		return total <= budget+1e-9 && math.Abs(total-res.Cost) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoMeZeroBudget(t *testing.T) {
	pm, model := randomInstance(rand.New(rand.NewPCG(2, 2)), 5, 5)
	costs := []float64{1, 1, 1, 1, 1}
	res, err := RoMe(pm, costs, 0, er.NewProbBoundInc(pm, model), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || res.Cost != 0 {
		t.Fatalf("zero budget selected %v", res.Selected)
	}
}

func TestRoMeLazyMatchesNaive(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		pm, model := randomInstance(rng, 8, 12)
		costs := make([]float64, pm.NumPaths())
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(4))
		}
		budget := 6.0
		lazy, err := RoMe(pm, costs, budget, er.NewProbBoundInc(pm, model), Options{Lazy: true})
		if err != nil {
			return false
		}
		naive, err := RoMe(pm, costs, budget, er.NewProbBoundInc(pm, model), Options{Lazy: false})
		if err != nil {
			return false
		}
		if math.Abs(lazy.Objective-naive.Objective) > 1e-9 {
			return false
		}
		if len(lazy.Selected) != len(naive.Selected) {
			return false
		}
		for i := range lazy.Selected {
			if lazy.Selected[i] != naive.Selected[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The Monte Carlo oracle's per-scenario gains are also non-increasing, so
// lazy evaluation must be exact for MonteRoMe too. The two runs share the
// scenario panel via identical seeds.
func TestRoMeLazyMatchesNaiveMonteCarlo(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 51))
		pm, model := randomInstance(rng, 8, 12)
		costs := make([]float64, pm.NumPaths())
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(3))
		}
		lazyOracle := er.NewMonteCarloInc(pm, model, 40, rand.New(rand.NewPCG(seed, 1)))
		naiveOracle := er.NewMonteCarloInc(pm, model, 40, rand.New(rand.NewPCG(seed, 1)))
		lazy, err := RoMe(pm, costs, 7, lazyOracle, Options{Lazy: true})
		if err != nil {
			return false
		}
		naive, err := RoMe(pm, costs, 7, naiveOracle, Options{Lazy: false})
		if err != nil {
			return false
		}
		if len(lazy.Selected) != len(naive.Selected) {
			return false
		}
		for i := range lazy.Selected {
			if lazy.Selected[i] != naive.Selected[i] {
				return false
			}
		}
		return math.Abs(lazy.Objective-naive.Objective) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRoMeLazySavesEvaluations(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	pm, model := randomInstance(rng, 10, 40)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	lazy, err := RoMe(pm, costs, 10, er.NewProbBoundInc(pm, model), Options{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RoMe(pm, costs, 10, er.NewProbBoundInc(pm, model), Options{Lazy: false})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.GainEvaluations >= naive.GainEvaluations {
		t.Fatalf("lazy evaluations %d not fewer than naive %d", lazy.GainEvaluations, naive.GainEvaluations)
	}
}

func TestRoMeBestSingletonFallback(t *testing.T) {
	// One 'jackpot' path whose singleton ER beats any affordable greedy
	// combination: greedy spends the budget on cheap low-gain paths first
	// per cost-benefit ratio, so the fallback must kick in.
	// Path 0: link 0, p=0.01 (EA 0.99), cost 10 (= full budget).
	// Paths 1,2: share links so combined ER stays low, cost 1 each.
	pm, err := tomo.NewPathMatrix([]routing.Path{
		synthPath(0),
		synthPath(1, 2),
		synthPath(1, 2),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := failure.FromProbabilities([]float64{0.01, 0.7, 0.7})
	costs := []float64{10, 1, 1}
	res, err := RoMe(pm, costs, 10, er.NewProbBoundInc(pm, model), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Greedy-by-ratio picks the cheap duplicated paths (ratio 0.09/1 ≈ 0.09
	// vs 0.99/10 = 0.099...). Compute: EA(q1)=0.09; ratio 0.09; jackpot
	// ratio 0.099 → greedy picks jackpot first anyway. Strengthen: budget
	// consumed by jackpot leaves nothing else; either way optimal here is
	// the jackpot, so assert it was selected.
	if len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Fatalf("Selected = %v, want [0]", res.Selected)
	}
	if math.Abs(res.Objective-0.99) > 1e-9 {
		t.Fatalf("Objective = %v, want 0.99", res.Objective)
	}
}

func TestRoMeFallbackBeatsGreedy(t *testing.T) {
	// Force the ratio greedy into a trap: a cheap low-value path exhausts
	// the budget for the expensive high-value one.
	// Path 0 (trap): link 1, EA 0.30, cost 1 → ratio 0.30.
	// Path 1 (jackpot): link 0, EA 0.95, cost 4 → ratio 0.2375.
	// Budget 4: greedy takes the trap (ratio higher), then cannot afford
	// the jackpot (1+4 > 4). Greedy ER = 0.30 < singleton 0.95.
	pm, err := tomo.NewPathMatrix([]routing.Path{
		synthPath(1),
		synthPath(0),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := failure.FromProbabilities([]float64{0.05, 0.7})
	costs := []float64{1, 4}
	res, err := RoMe(pm, costs, 4, er.NewProbBoundInc(pm, model), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 || res.Selected[0] != 1 {
		t.Fatalf("Selected = %v, want the singleton jackpot [1]", res.Selected)
	}
	if math.Abs(res.Objective-0.95) > 1e-9 {
		t.Fatalf("Objective = %v, want 0.95", res.Objective)
	}
}

// Property (Theorem 6): with the exact ER oracle, RoMe achieves at least
// (1 − 1/√e)·OPT on small random instances.
func TestRoMeApproximationGuarantee(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 29))
		pm, model := randomInstance(rng, 6, 7)
		costs := make([]float64, pm.NumPaths())
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(3))
		}
		budget := 2 + float64(rng.IntN(8))
		res, err := RoMe(pm, costs, budget, newExactInc(pm, model), NewOptions())
		if err != nil {
			return false
		}
		opt, err := BruteForce(pm, model, costs, budget)
		if err != nil {
			return false
		}
		if opt.Objective <= 0 {
			return true
		}
		achieved, err := er.Exact(pm, model, res.Selected)
		if err != nil {
			return false
		}
		return achieved >= ApproximationFloor*opt.Objective-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRoMeZeroCostPaths(t *testing.T) {
	// Zero-cost paths must be selected before any costly ones and never
	// break the weight computation.
	pm, _ := tomo.NewPathMatrix([]routing.Path{synthPath(0), synthPath(1)}, 2)
	model, _ := failure.FromProbabilities([]float64{0.1, 0.1})
	res, err := RoMe(pm, []float64{0, 5}, 5, er.NewProbBoundInc(pm, model), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("Selected = %v, want both", res.Selected)
	}
	if res.Selected[0] != 0 {
		t.Fatalf("zero-cost path not selected first: %v", res.Selected)
	}
}

func TestRoMeCancellation(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	pm, model := randomInstance(rng, 12, 30)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}

	// Already-cancelled context: the greedy loop must bail before selecting
	// anything, in both the lazy and naive variants.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, lazy := range []bool{true, false} {
		opts := NewOptions()
		opts.Lazy = lazy
		opts.Ctx = ctx
		_, err := RoMe(pm, costs, 10, er.NewProbBoundInc(pm, model), opts)
		if err == nil {
			t.Fatalf("lazy=%v: cancelled context accepted", lazy)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("lazy=%v: error %v does not wrap context.Canceled", lazy, err)
		}
	}

	// A nil Ctx (the default) never cancels.
	opts := NewOptions()
	if opts.Ctx != nil {
		t.Fatal("NewOptions should leave Ctx nil")
	}
	if _, err := RoMe(pm, costs, 10, er.NewProbBoundInc(pm, model), opts); err != nil {
		t.Fatal(err)
	}

	// An expired deadline reads the same as cancellation.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	opts = NewOptions()
	opts.Ctx = dctx
	_, err := RoMe(pm, costs, 10, er.NewProbBoundInc(pm, model), opts)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RoMe under expired deadline: %v", err)
	}
}
