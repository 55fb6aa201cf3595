package selection

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/linalg"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
)

func TestMatRoMeValidation(t *testing.T) {
	pm, _ := randomInstance(rand.New(rand.NewPCG(1, 1)), 4, 3)
	if _, err := MatRoMe(pm, []float64{1}, 2); err == nil {
		t.Fatal("availability length mismatch accepted")
	}
	if _, err := MatRoMe(pm, []float64{1, 1, 1}, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestMatRoMeSelectsIndependentSet(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		pm, model := randomInstance(rng, 8, 12)
		ea := er.Availabilities(pm, model)
		budget := pm.Rank()
		res, err := MatRoMe(pm, ea, budget)
		if err != nil {
			return false
		}
		if len(res.Selected) > budget {
			return false
		}
		// Selected rows must be independent and maximal up to the budget.
		if pm.RankOf(res.Selected) != len(res.Selected) {
			return false
		}
		if len(res.Selected) != min(budget, pm.Rank()) {
			return false
		}
		// Objective is the modular sum.
		sum := 0.0
		for _, q := range res.Selected {
			sum += ea[q]
		}
		return math.Abs(sum-res.Objective) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorem 9): MatRoMe is optimal among independent sets of size
// ≤ budget; verify against brute force on small instances.
func TestMatRoMeOptimal(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 37))
		pm, model := randomInstance(rng, 6, 8)
		ea := er.Availabilities(pm, model)
		budget := 3
		res, err := MatRoMe(pm, ea, budget)
		if err != nil {
			return false
		}
		// Brute force over independent subsets of size ≤ budget.
		best := 0.0
		n := pm.NumPaths()
		for mask := 0; mask < 1<<n; mask++ {
			var idx []int
			val := 0.0
			for q := 0; q < n; q++ {
				if mask&(1<<q) != 0 {
					idx = append(idx, q)
					val += ea[q]
				}
			}
			if len(idx) > budget || pm.RankOf(idx) != len(idx) {
				continue
			}
			if val > best {
				best = val
			}
		}
		return res.Objective >= best-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// exactGreedy is MatRoMe's scan with RankExact as the independence test:
// candidates in decreasing weight (ties by index), each kept when the exact
// rank of the picks rises. It reports the picks and the candidates tested.
func exactGreedy(pm *tomo.PathMatrix, weight []float64, budget int) (picks []int, evals int) {
	order := make([]int, pm.NumPaths())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	for _, q := range order {
		if len(picks) >= budget {
			break
		}
		evals++
		if linalg.RankExact(pm.Matrix().SelectRows(append(picks[:len(picks):len(picks)], q))) > len(picks) {
			picks = append(picks, q)
		}
	}
	return picks, evals
}

func TestMatRoMeAgreesWithExactGreedy(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		pm, model := randomInstance(rng, 7, 9)
		ea := er.Availabilities(pm, model)
		budget := pm.Rank()
		res, err := MatRoMe(pm, ea, budget)
		if err != nil {
			return false
		}
		picks, evals := exactGreedy(pm, ea, budget)
		if res.GainEvaluations != evals || len(res.Selected) != len(picks) {
			return false
		}
		for i := range picks {
			if res.Selected[i] != picks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPathIsMaximalBasis(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 43))
		pm, _ := randomInstance(rng, 8, 12)
		basis := SelectPath(pm)
		if len(basis) != pm.Rank() {
			return false
		}
		return pm.RankOf(basis) == len(basis)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPathBudgetedValidation(t *testing.T) {
	pm, _ := randomInstance(rand.New(rand.NewPCG(2, 2)), 5, 4)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		costs  []float64
		budget float64
	}{
		{"cost mismatch", []float64{1}, 5},
		{"negative cost", []float64{1, -1, 1, 1}, 5},
		{"NaN cost", []float64{1, 1, nan, 1}, 5},
		{"negative budget", []float64{1, 1, 1, 1}, -2},
		{"NaN budget", []float64{1, 1, 1, 1}, nan},
	} {
		if _, err := SelectPathBudgeted(pm, c.costs, c.budget); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// +Inf stays a valid cost and budget, as in the engine's Normalize.
	if _, err := SelectPathBudgeted(pm, []float64{1, inf, 1, 1}, inf); err != nil {
		t.Errorf("+Inf cost and budget rejected: %v", err)
	}
}

func TestSelectPathBudgetedUnderBudgetAddsCheapest(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	pm, _ := randomInstance(rng, 8, 12)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1 + float64(rng.IntN(4))
	}
	basis := SelectPath(pm)
	basisCost := 0.0
	for _, q := range basis {
		basisCost += costs[q]
	}
	budget := basisCost + 5
	res, err := SelectPathBudgeted(pm, costs, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > budget {
		t.Fatalf("cost %v exceeds budget %v", res.Cost, budget)
	}
	if len(res.Selected) <= len(basis) && res.Cost+4 <= budget {
		t.Fatalf("under budget but nothing added: %d paths, cost %v, budget %v", len(res.Selected), res.Cost, budget)
	}
	// The basis must be fully contained.
	inSel := map[int]bool{}
	for _, q := range res.Selected {
		inSel[q] = true
	}
	for _, q := range basis {
		if !inSel[q] {
			t.Fatalf("basis path %d dropped under budget", q)
		}
	}
}

func TestSelectPathBudgetedOverBudgetRemovesExpensive(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	pm, _ := randomInstance(rng, 8, 12)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 10
	}
	basis := SelectPath(pm)
	budget := 10 * float64(len(basis)-2) // force removal of 2 paths
	res, err := SelectPathBudgeted(pm, costs, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > budget {
		t.Fatalf("cost %v exceeds budget %v", res.Cost, budget)
	}
	if len(res.Selected) != len(basis)-2 {
		t.Fatalf("selected %d, want %d", len(res.Selected), len(basis)-2)
	}
}

func TestSelectPathBudgetedZeroBudget(t *testing.T) {
	pm, _ := randomInstance(rand.New(rand.NewPCG(5, 5)), 6, 6)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	res, err := SelectPathBudgeted(pm, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Fatalf("zero budget selected %v", res.Selected)
	}
}

func TestKnapsackDPKnownInstance(t *testing.T) {
	values := []float64{60, 100, 120}
	weights := []int{10, 20, 30}
	items, best, err := KnapsackDP(values, weights, 50)
	if err != nil {
		t.Fatal(err)
	}
	if best != 220 {
		t.Fatalf("best = %v, want 220", best)
	}
	if len(items) != 2 || items[0] != 1 || items[1] != 2 {
		t.Fatalf("items = %v, want [1 2]", items)
	}
}

func TestKnapsackDPValidation(t *testing.T) {
	if _, _, err := KnapsackDP([]float64{1}, []int{1, 2}, 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := KnapsackDP([]float64{1}, []int{-1}, 3); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, _, err := KnapsackDP([]float64{1}, []int{1}, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// Property: on knapsack-reduction instances (disjoint single-link paths, so
// ER is modular and equals the knapsack objective, per the Theorem 3
// reduction), RoMe achieves at least (1 − 1/√e)·OPT where OPT comes from
// the exact DP. On these instances ProbBound is exact, so the oracle
// objective equals the true ER.
func TestRoMeOnKnapsackReduction(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 47))
		n := 2 + rng.IntN(8)
		paths := make([]routing.Path, n)
		probs := make([]float64, n)
		weights := make([]int, n)
		costs := make([]float64, n)
		for i := 0; i < n; i++ {
			paths[i] = synthPath(i) // path i = single link i, all disjoint
			probs[i] = rng.Float64() * 0.9
			weights[i] = 1 + rng.IntN(5)
			costs[i] = float64(weights[i])
		}
		pm, err := tomo.NewPathMatrix(paths, n)
		if err != nil {
			return false
		}
		model, err := failure.FromProbabilities(probs)
		if err != nil {
			return false
		}
		values := make([]float64, n)
		for i := range values {
			values[i] = 1 - probs[i] // EA of path i = knapsack value
		}
		capacity := 1 + int(seed%12)
		_, opt, err := KnapsackDP(values, weights, capacity)
		if err != nil {
			return false
		}
		res, err := RoMe(pm, costs, float64(capacity), er.NewProbBoundInc(pm, model), NewOptions())
		if err != nil {
			return false
		}
		return res.Objective >= ApproximationFloor*opt-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceLimit(t *testing.T) {
	pm, model := randomInstance(rand.New(rand.NewPCG(6, 6)), 5, 5)
	costs := []float64{1, 1, 1, 1, 1}
	if _, err := BruteForce(pm, model, costs[:4], 3); err == nil {
		t.Fatal("cost mismatch accepted")
	}
	res, err := BruteForce(pm, model, costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 3 {
		t.Fatalf("brute force exceeded budget: %v", res.Cost)
	}
	if math.IsInf(res.Objective, -1) {
		t.Fatal("no feasible subset found")
	}
}

func TestApproximationFloorValue(t *testing.T) {
	if math.Abs(ApproximationFloor-(1-1/math.Sqrt(math.E))) > 1e-15 {
		t.Fatalf("floor = %v", ApproximationFloor)
	}
	_ = linalg.DefaultTol // keep import for clarity of intent
}
