package bandit

import (
	"fmt"
	"testing"

	"robusttomo/internal/er"
	"robusttomo/internal/selection"
)

// freshLSR is the rebuild-every-epoch reference for the learner's
// epoch-incremental engine. It shares the learner's statistics and update
// rules (recordObs, forcedPath, ucbInto), but carries nothing else across
// epochs: each epoch allocates a fresh UCB vector, builds a new
// ThetaBoundInc, runs RoMe without a Scratch, dedupes the action through a
// map and ranks the surviving paths with PathMatrix.RankOf.
// TestLSRFreshMatchesIncremental holds the learner to it and
// BenchmarkLSREpochSteadyFresh times it.
type freshLSR struct{ *LSR }

func (f freshLSR) SelectAction() ([]int, error) {
	forced := f.forcedPath()
	f.recordUCBSpread()
	return f.maximize(f.ucbInto(make([]float64, len(f.sumX))), forced)
}

func (f freshLSR) maximize(theta []float64, forced int) ([]int, error) {
	if forced >= 0 {
		f.m.explorePicks.Inc()
	}
	if f.opts.Matroid {
		return f.matroidMaximize(theta, forced)
	}
	oracle := er.NewThetaBoundInc(f.pm, theta)
	opts := selection.NewOptions()
	opts.Observer = f.opts.Observer
	budget := f.budget
	var pre []int
	if forced >= 0 {
		oracle.Add(forced)
		budget -= f.costs[forced]
		pre = []int{forced}
	}
	res, err := selection.RoMe(f.pm, f.costs, budget, oracle, opts)
	if err != nil {
		return nil, err
	}
	return dedupe(append(pre, res.Selected...)), nil
}

func (f freshLSR) Observe(action []int, avail []bool) (int, error) {
	if len(avail) != f.pm.NumPaths() {
		return 0, fmt.Errorf("bandit: availability vector of %d for %d paths", len(avail), f.pm.NumPaths())
	}
	var up []int
	for _, q := range action {
		if q < 0 || q >= f.pm.NumPaths() {
			return 0, fmt.Errorf("bandit: action path %d out of range", q)
		}
		x := 0.0
		if avail[q] {
			x = 1
			up = append(up, q)
		}
		f.recordObs(q, x)
	}
	reward := f.pm.RankOf(up)
	f.cumulativeReward += float64(reward)
	f.epoch++
	f.m.epochs.Inc()
	f.m.reward.Set(float64(reward))
	f.m.rewardTotal.Add(uint64(reward))
	return reward, nil
}

func (f freshLSR) Step(env Env) ([]int, int, error) {
	action, err := f.SelectAction()
	if err != nil {
		return nil, 0, err
	}
	reward, err := f.Observe(action, env.Epoch())
	if err != nil {
		return nil, 0, err
	}
	return action, reward, nil
}

func (f freshLSR) Exploit() ([]int, error) { return f.maximize(f.ThetaHat(), -1) }

// dedupe drops repeated paths from idx in place, keeping first occurrences
// in order, through a per-call map.
func dedupe(idx []int) []int {
	seen := make(map[int]bool, len(idx))
	out := idx[:0]
	for _, q := range idx {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func TestDedupe(t *testing.T) {
	got := dedupe([]int{3, 1, 3, 2, 1})
	want := []int{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("dedupe = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupe = %v, want %v", got, want)
		}
	}
}
