package bandit

import (
	"math"
	"math/rand/v2"
	"testing"

	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
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

// smallInstance: 6 disjoint-ish paths over 6 links with varied failure
// probabilities.
func smallInstance(t *testing.T) (*tomo.PathMatrix, *failure.Model) {
	t.Helper()
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
		t.Fatal(err)
	}
	model, err := failure.FromProbabilities([]float64{0.05, 0.1, 0.6, 0.2, 0.2, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return pm, model
}

func unitCosts(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestNewValidation(t *testing.T) {
	pm, _ := smallInstance(t)
	if _, err := New(pm, unitCosts(3), 2, Options{}); err == nil {
		t.Fatal("cost length mismatch accepted")
	}
	if _, err := New(pm, unitCosts(pm.NumPaths()), 0, Options{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := New(pm, unitCosts(pm.NumPaths()), 2, Options{Matroid: true}); err == nil {
		t.Fatal("matroid mode without budget accepted")
	}
}

func TestLDerivation(t *testing.T) {
	pm, _ := smallInstance(t)
	b, err := New(pm, unitCosts(pm.NumPaths()), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.L() != 3 { // budget 3 / min cost 1
		t.Fatalf("L = %d, want 3", b.L())
	}
	bm, err := New(pm, unitCosts(pm.NumPaths()), 3, Options{Matroid: true, MatroidBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bm.L() != 2 {
		t.Fatalf("matroid L = %d, want 2", bm.L())
	}
	bo, err := New(pm, unitCosts(pm.NumPaths()), 3, Options{L: 5})
	if err != nil {
		t.Fatal(err)
	}
	if bo.L() != 5 {
		t.Fatalf("override L = %d, want 5", bo.L())
	}
}

func TestInitializationCoversAllPaths(t *testing.T) {
	pm, model := smallInstance(t)
	b, err := New(pm, unitCosts(pm.NumPaths()), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(1, 1))
	// After at most N epochs every path must have been observed.
	for e := 0; e < pm.NumPaths(); e++ {
		if _, _, err := b.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range b.Counts() {
		if c == 0 {
			t.Fatalf("path %d never observed after initialization", i)
		}
	}
	if b.Epochs() != pm.NumPaths() {
		t.Fatalf("Epochs = %d", b.Epochs())
	}
}

func TestObserveUpdatesEstimates(t *testing.T) {
	pm, _ := smallInstance(t)
	b, err := New(pm, unitCosts(pm.NumPaths()), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	avail := []bool{true, false, true, true, false, true}
	reward, err := b.Observe([]int{0, 1}, avail)
	if err != nil {
		t.Fatal(err)
	}
	if reward != 1 { // only path 0 up among the action
		t.Fatalf("reward = %d, want 1", reward)
	}
	th := b.ThetaHat()
	if th[0] != 1 || th[1] != 0 {
		t.Fatalf("ThetaHat = %v", th)
	}
	if b.CumulativeReward() != 1 {
		t.Fatalf("CumulativeReward = %v", b.CumulativeReward())
	}
}

func TestObserveValidation(t *testing.T) {
	pm, _ := smallInstance(t)
	b, _ := New(pm, unitCosts(pm.NumPaths()), 3, Options{})
	if _, err := b.Observe([]int{0}, []bool{true}); err == nil {
		t.Fatal("short availability accepted")
	}
	avail := make([]bool, pm.NumPaths())
	if _, err := b.Observe([]int{99}, avail); err == nil {
		t.Fatal("out-of-range action accepted")
	}
}

func TestActionsRespectBudget(t *testing.T) {
	pm, model := smallInstance(t)
	costs := []float64{1, 2, 1, 3, 2, 1}
	budget := 4.0
	b, err := New(pm, costs, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(2, 2))
	for e := 0; e < 30; e++ {
		action, _, err := b.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		seen := map[int]bool{}
		for _, q := range action {
			if seen[q] {
				t.Fatalf("duplicate path %d in action %v", q, action)
			}
			seen[q] = true
			total += costs[q]
		}
		if total > budget+1e-9 {
			t.Fatalf("epoch %d action %v costs %v > budget %v", e, action, total, budget)
		}
	}
}

func TestUnaffordableForcedPathSkipped(t *testing.T) {
	pm, model := smallInstance(t)
	costs := []float64{1, 1, 99, 1, 1, 1} // path 2 can never be probed
	b, err := New(pm, costs, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(3, 3))
	for e := 0; e < 20; e++ {
		action, _, err := b.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range action {
			if q == 2 {
				t.Fatalf("unaffordable path probed in %v", action)
			}
		}
	}
}

func TestLearnsThetaOnIndependentEnv(t *testing.T) {
	pm, _ := smallInstance(t)
	theta := []float64{0.95, 0.9, 0.4, 0.85, 0.8, 0.98}
	env := NewThetaEnv(theta, stats.NewRNG(4, 4))
	b, err := New(pm, unitCosts(pm.NumPaths()), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 1500; e++ {
		if _, _, err := b.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	th := b.ThetaHat()
	counts := b.Counts()
	// Frequently played paths should have accurate estimates.
	for i := range th {
		if counts[i] > 300 && math.Abs(th[i]-theta[i]) > 0.1 {
			t.Fatalf("path %d: θ̂ = %v, θ = %v (count %d)", i, th[i], theta[i], counts[i])
		}
	}
}

func TestExploitConvergesToOptimal(t *testing.T) {
	pm, model := smallInstance(t)
	costs := unitCosts(pm.NumPaths())
	budget := 3.0
	b, err := New(pm, costs, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(5, 5))
	for e := 0; e < 1200; e++ {
		if _, _, err := b.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	learned, err := b.Exploit()
	if err != nil {
		t.Fatal(err)
	}
	// Compare achieved exact ER against the known-distribution RoMe pick.
	oracle := er.NewProbBoundInc(pm, model)
	known, err := selection.RoMe(pm, costs, budget, oracle, selection.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	erLearned, err := er.Exact(pm, model, learned)
	if err != nil {
		t.Fatal(err)
	}
	erKnown, err := er.Exact(pm, model, known.Selected)
	if err != nil {
		t.Fatal(err)
	}
	if erLearned < 0.85*erKnown {
		t.Fatalf("learned ER %v too far below known-distribution ER %v", erLearned, erKnown)
	}
}

func TestMatroidModeSelectsIndependentSets(t *testing.T) {
	pm, model := smallInstance(t)
	b, err := New(pm, unitCosts(pm.NumPaths()), 3, Options{Matroid: true, MatroidBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, stats.NewRNG(6, 6))
	for e := 0; e < 25; e++ {
		action, _, err := b.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		if len(action) > 3 {
			t.Fatalf("action %v exceeds matroid budget", action)
		}
		if pm.RankOf(action) != len(action) {
			t.Fatalf("action %v not linearly independent", action)
		}
	}
}

// Regret shape: average per-epoch regret must shrink as epochs grow
// (sublinear cumulative regret), measured against the best fixed action's
// expected reward on an independent-θ environment.
func TestRegretSublinear(t *testing.T) {
	paths := []routing.Path{synthPath(0), synthPath(1), synthPath(2), synthPath(3)}
	pm, err := tomo.NewPathMatrix(paths, 4)
	if err != nil {
		t.Fatal(err)
	}
	theta := []float64{0.9, 0.8, 0.3, 0.2}
	// Budget 2, unit costs: best action = paths {0, 1}, expected reward 1.7.
	best := 1.7
	env := NewThetaEnv(theta, stats.NewRNG(7, 7))
	b, err := New(pm, unitCosts(4), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 3000
	half := horizon / 2
	var firstHalf float64
	for e := 0; e < horizon; e++ {
		_, r, err := b.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		if e == half-1 {
			firstHalf = b.CumulativeReward()
		}
		_ = r
	}
	secondHalf := b.CumulativeReward() - firstHalf
	regret1 := best*float64(half) - firstHalf
	regret2 := best*float64(horizon-half) - secondHalf
	if regret2 > regret1 {
		t.Fatalf("regret grew: first half %v, second half %v", regret1, regret2)
	}
	// The learner should settle close to the optimum late on.
	if secondHalf/float64(horizon-half) < best-0.15 {
		t.Fatalf("late average reward %v too far from optimum %v", secondHalf/float64(horizon-half), best)
	}
}

func TestThetaEnvFrequencies(t *testing.T) {
	env := NewThetaEnv([]float64{0.25}, stats.NewRNG(8, 8))
	up := 0
	n := 8000
	for i := 0; i < n; i++ {
		if env.Epoch()[0] {
			up++
		}
	}
	if f := float64(up) / float64(n); math.Abs(f-0.25) > 0.03 {
		t.Fatalf("frequency %v, want ~0.25", f)
	}
}

func TestFailureEnvConsistentWithModel(t *testing.T) {
	pm, model := smallInstance(t)
	env := NewFailureEnv(pm, model, stats.NewRNG(9, 9))
	n := 8000
	up := 0
	for i := 0; i < n; i++ {
		if env.Epoch()[0] {
			up++
		}
	}
	want := er.ExpectedAvailability(pm, model, 0)
	if f := float64(up) / float64(n); math.Abs(f-want) > 0.03 {
		t.Fatalf("path 0 availability %v, want ~%v", f, want)
	}
}

func TestRandomizedActionsStayValid(t *testing.T) {
	// Fuzz many short learning runs on random instances.
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		nLinks := 4 + rng.IntN(4)
		nPaths := 3 + rng.IntN(6)
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
			t.Fatal(err)
		}
		probs := make([]float64, nLinks)
		for i := range probs {
			probs[i] = rng.Float64() * 0.5
		}
		model, err := failure.FromProbabilities(probs)
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]float64, nPaths)
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(3))
		}
		budget := 2 + float64(rng.IntN(6))
		b, err := New(pm, costs, budget, Options{})
		if err != nil {
			t.Fatal(err)
		}
		env := NewFailureEnv(pm, model, rng)
		for e := 0; e < 40; e++ {
			action, _, err := b.Step(env)
			if err != nil {
				t.Fatal(err)
			}
			total := 0.0
			affordable := false
			for _, q := range action {
				total += costs[q]
			}
			for _, c := range costs {
				if c <= budget {
					affordable = true
				}
			}
			if affordable && total > budget+1e-9 {
				t.Fatalf("trial %d epoch %d: cost %v > budget %v", trial, e, total, budget)
			}
		}
	}
}
