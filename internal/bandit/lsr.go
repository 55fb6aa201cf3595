// Package bandit implements the paper's Section V learner for the case of
// an unknown failure distribution: LSR (Learning with Submodular Rewards),
// a combinatorial UCB algorithm that learns per-path expected
// availabilities θ while repeatedly selecting probing-path sets under the
// budget constraint. Each epoch plays the action maximizing the
// independence-assumption ER bound at the optimistic estimates θ̂ + C,
// where C_i = sqrt((L+1)·ln n / μ_i) is the confidence width (Eq. 10). The
// inner maximization is NP-hard, so LSR uses RoMe with the Eq. 11 bound as
// its subroutine, exactly as the paper prescribes.
//
// With a matroid action space (independent paths, unit costs) the reward is
// linear and LSR degenerates into LLR of Gai–Krishnamachari–Jain; Options.
// Matroid selects that mode.
package bandit

import (
	"fmt"
	"math"

	"robusttomo/internal/er"
	"robusttomo/internal/linalg"
	"robusttomo/internal/obs"
	"robusttomo/internal/selection"
	"robusttomo/internal/tomo"
)

// Env supplies one epoch of ground truth: a path-availability function
// drawn from the (unknown to the learner) failure process.
type Env interface {
	// Epoch draws the availability of every candidate path for one epoch.
	// The learner only reads entries of probed paths, respecting the
	// semi-bandit feedback model.
	Epoch() []bool
}

// Options configures the learner.
type Options struct {
	// Matroid switches to the LLR special case: the action space contains
	// only linearly independent path sets of size ≤ MatroidBudget with
	// unit costs.
	Matroid       bool
	MatroidBudget int
	// L overrides the maximum-action-size constant in the confidence
	// width. Zero derives it from the budget and cheapest path (or
	// MatroidBudget in matroid mode).
	L int
	// Observer, when non-nil, receives learner metrics (epoch counts,
	// rewards, UCB width spread, exploration picks) and is forwarded to the
	// inner RoMe maximization. Instrumentation reads state the learner
	// already maintains and never changes the action sequence; a nil
	// Observer leaves every metric handle nil.
	Observer *obs.Registry
}

// LSR is the learner state.
type LSR struct {
	pm     *tomo.PathMatrix
	costs  []float64
	budget float64
	opts   Options

	sumX  []float64 // per-path sum of observed availabilities
	count []int     // per-path observation counts (μ)
	mu    []float64 // sumX/count, maintained incrementally on observation
	width []float64 // sqrt((L+1)/count), maintained incrementally
	epoch int       // completed epochs (n)
	l     int       // the L constant

	cumulativeReward float64

	m *banditMetrics

	// Epoch-incremental workspace. Only played paths dirty μ/width, so
	// per-epoch state is rebuilt from these persistent buffers with
	// O(played paths) allocation instead of O(n): the UCB vector lands in
	// ucbBuf, the oracle is Reset rather than rebuilt, RoMe reuses
	// romeScratch, and Observe ranks the surviving subset in a private
	// basis via RankOfWith. The rebuild-every-epoch reference in the tests
	// (TestLSRFreshMatchesIncremental) pins the action sequence.
	ucbBuf      []float64
	oracle      *er.ThetaBoundInc
	romeScratch *selection.Scratch
	rankBasis   *linalg.SparseBasis
	upBuf       []int
	seenBuf     []bool
	// firstUnobserved is the initialization-phase cursor: every path below
	// it has been observed at least once (counts never decrease).
	firstUnobserved int
}

// New validates the problem and returns a fresh learner.
func New(pm *tomo.PathMatrix, costs []float64, budget float64, opts Options) (*LSR, error) {
	n := pm.NumPaths()
	if n == 0 {
		return nil, fmt.Errorf("bandit: no candidate paths")
	}
	if len(costs) != n {
		return nil, fmt.Errorf("bandit: %d costs for %d paths", len(costs), n)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("bandit: non-positive budget %v", budget)
	}
	if opts.Matroid && opts.MatroidBudget <= 0 {
		return nil, fmt.Errorf("bandit: matroid mode needs a positive MatroidBudget")
	}
	l := opts.L
	if l <= 0 {
		if opts.Matroid {
			l = opts.MatroidBudget
		} else {
			minCost := math.Inf(1)
			for _, c := range costs {
				if c > 0 && c < minCost {
					minCost = c
				}
			}
			if math.IsInf(minCost, 1) {
				l = n
			} else {
				l = int(budget / minCost)
			}
		}
		if l > n {
			l = n
		}
		if l < 1 {
			l = 1
		}
	}
	return &LSR{
		pm:     pm,
		costs:  costs,
		budget: budget,
		opts:   opts,
		sumX:   make([]float64, n),
		count:  make([]int, n),
		mu:     make([]float64, n),
		width:  make([]float64, n),
		l:      l,
		m:      newBanditMetrics(opts.Observer),
	}, nil
}

// Epochs returns the number of completed epochs.
func (b *LSR) Epochs() int { return b.epoch }

// L returns the action-size constant used in the confidence width.
func (b *LSR) L() int { return b.l }

// CumulativeReward returns the total rank reward accumulated so far.
func (b *LSR) CumulativeReward() float64 { return b.cumulativeReward }

// ThetaHat returns the current empirical availability estimates (0 for
// never-observed paths).
func (b *LSR) ThetaHat() []float64 {
	out := make([]float64, len(b.sumX))
	for i := range out {
		if b.count[i] > 0 {
			out[i] = b.sumX[i] / float64(b.count[i])
		}
	}
	return out
}

// Counts returns a copy of the per-path observation counts.
func (b *LSR) Counts() []int {
	out := make([]int, len(b.count))
	copy(out, b.count)
	return out
}

// recordObs folds one availability sample for path q into the sufficient
// statistics, keeping μ and the count-dependent width factor current. This
// is the only place the per-path learner state changes, which is what makes
// the cross-epoch workspace reuse sound: everything else is a pure function
// of (μ, width, epoch).
func (b *LSR) recordObs(q int, x float64) {
	b.sumX[q] += x
	b.count[q]++
	c := float64(b.count[q])
	b.mu[q] = b.sumX[q] / c
	b.width[q] = math.Sqrt(float64(b.l+1) / c)
}

// syncDerived rebuilds everything recordObs maintains incrementally — the
// μ/width factors and the initialization cursor — after sumX/count were
// overwritten wholesale (snapshot restore, window rebuild).
func (b *LSR) syncDerived() {
	b.firstUnobserved = 0
	for i, c := range b.count {
		if c == 0 {
			b.mu[i], b.width[i] = 0, 0
			continue
		}
		b.mu[i] = b.sumX[i] / float64(c)
		b.width[i] = math.Sqrt(float64(b.l+1) / float64(c))
	}
}

// ucbInto writes θ̂ + C per Eq. 10 into out (len = NumPaths), with
// unobserved paths treated as maximally optimistic, allocating nothing. The
// width is factored as sqrt((L+1)/count_i)·sqrt(ln n) so the per-path part
// updates only on observation and the epoch part is one scalar.
func (b *LSR) ucbInto(out []float64) []float64 {
	n := float64(b.epoch)
	if n < 2 {
		n = 2
	}
	s := math.Sqrt(math.Log(n))
	for i := range out {
		if b.count[i] == 0 {
			out[i] = 1
			continue
		}
		out[i] = b.mu[i] + b.width[i]*s
	}
	return out
}

// unobserved returns the lowest-index never-probed path, or -1. Counts
// never decrease, so the scan resumes from a cursor instead of restarting
// at 0 every epoch.
func (b *LSR) unobserved() int {
	for b.firstUnobserved < len(b.count) && b.count[b.firstUnobserved] > 0 {
		b.firstUnobserved++
	}
	if b.firstUnobserved < len(b.count) {
		return b.firstUnobserved
	}
	return -1
}

// SelectAction computes the action for the next epoch: during
// initialization, an action covering a not-yet-observed path; afterwards
// the RoMe maximizer of ER(R; θ̂ + C).
func (b *LSR) SelectAction() ([]int, error) {
	forced := b.forcedPath()
	b.recordUCBSpread()
	b.ucbBuf = growFloats(b.ucbBuf, len(b.sumX))
	return b.maximize(b.ucbInto(b.ucbBuf), forced)
}

// forcedPath returns the path the initialization phase of Algorithm 2
// forces into the next action — the lowest-index never-observed path — or
// -1 once every path has been observed. A path whose cost alone exceeds the
// budget can never be probed, so it is marked observed-unavailable instead
// of forced, to avoid deadlock.
func (b *LSR) forcedPath() int {
	for {
		q := b.unobserved()
		if q < 0 || b.opts.Matroid || b.costs[q] <= b.budget {
			return q
		}
		b.count[q] = 1
		b.sumX[q] = 0
		b.mu[q] = 0
		b.width[q] = math.Sqrt(float64(b.l + 1))
	}
}

// recordUCBSpread publishes the spread (max − min) of the Eq. 10
// confidence widths over observed paths. Only computed when the gauge is
// installed, so the unobserved learner pays nothing here.
func (b *LSR) recordUCBSpread() {
	if b.m.ucbSpread == nil {
		return
	}
	n := float64(b.epoch)
	if n < 2 {
		n = 2
	}
	s := math.Sqrt(math.Log(n))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range b.count {
		if c == 0 {
			continue
		}
		w := b.width[i] * s
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if hi < lo {
		return // nothing observed yet
	}
	b.m.ucbSpread.Set(hi - lo)
}

// maximize runs the paper's inner optimization with an optional forced
// first pick.
func (b *LSR) maximize(theta []float64, forced int) ([]int, error) {
	if forced >= 0 {
		b.m.explorePicks.Inc()
	}
	if b.opts.Matroid {
		return b.matroidMaximize(theta, forced)
	}
	if b.oracle == nil {
		b.oracle = er.NewThetaBoundInc(b.pm, theta)
		b.romeScratch = &selection.Scratch{}
	} else {
		b.oracle.Reset(theta)
	}
	opts := selection.NewOptions()
	opts.Observer = b.opts.Observer
	opts.Scratch = b.romeScratch
	budget := b.budget
	var pre []int
	if forced >= 0 {
		b.oracle.Add(forced)
		budget -= b.costs[forced]
		pre = []int{forced}
	}
	res, err := selection.RoMe(b.pm, b.costs, budget, b.oracle, opts)
	if err != nil {
		return nil, err
	}
	b.seenBuf = growSeen(b.seenBuf, b.pm.NumPaths())
	return dedupeWith(append(pre, res.Selected...), b.seenBuf), nil
}

func (b *LSR) matroidMaximize(theta []float64, forced int) ([]int, error) {
	if forced < 0 {
		res, err := selection.MatRoMe(b.pm, theta, b.opts.MatroidBudget)
		if err != nil {
			return nil, err
		}
		return res.Selected, nil
	}
	// Force inclusion by giving the forced path an infinitely attractive
	// weight; MatRoMe's stable sort puts it first.
	boost := make([]float64, len(theta))
	copy(boost, theta)
	boost[forced] = math.Inf(1)
	res, err := selection.MatRoMe(b.pm, boost, b.opts.MatroidBudget)
	if err != nil {
		return nil, err
	}
	return res.Selected, nil
}

// dedupeWith drops repeated paths from idx in place, keeping first
// occurrences in order. seen is a persistent buffer (len ≥ NumPaths, all
// false on entry, restored to all false before return), so the
// steady-state epoch allocates no set.
func dedupeWith(idx []int, seen []bool) []int {
	out := idx[:0]
	for _, q := range idx {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	for _, q := range out {
		seen[q] = false
	}
	return out
}

// growFloats resizes buf to n, reallocating only on capacity growth.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// growSeen resizes buf to n; new storage starts all false and dedupeWith
// restores that invariant, so no clearing is needed here.
func growSeen(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// Observe records one epoch's feedback for a played action and returns the
// reward (the rank of the surviving subset, Eq. 8).
func (b *LSR) Observe(action []int, avail []bool) (reward int, err error) {
	if len(avail) != b.pm.NumPaths() {
		return 0, fmt.Errorf("bandit: availability vector of %d for %d paths", len(avail), b.pm.NumPaths())
	}
	up := b.upBuf[:0]
	for _, q := range action {
		if q < 0 || q >= b.pm.NumPaths() {
			return 0, fmt.Errorf("bandit: action path %d out of range", q)
		}
		x := 0.0
		if avail[q] {
			x = 1
			up = append(up, q)
		}
		b.recordObs(q, x)
	}
	b.upBuf = up
	if b.rankBasis == nil {
		b.rankBasis = b.pm.NewRankBasis()
	}
	reward = b.pm.RankOfWith(up, b.rankBasis)
	b.cumulativeReward += float64(reward)
	b.epoch++
	b.m.epochs.Inc()
	b.m.reward.Set(float64(reward))
	b.m.rewardTotal.Add(uint64(reward))
	return reward, nil
}

// Step runs one full epoch against the environment: select, play, observe.
func (b *LSR) Step(env Env) (action []int, reward int, err error) {
	action, err = b.SelectAction()
	if err != nil {
		return nil, 0, err
	}
	reward, err = b.Observe(action, env.Epoch())
	if err != nil {
		return nil, 0, err
	}
	return action, reward, nil
}

// Exploit returns the pure-exploitation selection at the current estimates
// (confidence width zero): the final path set the paper evaluates after
// 500/1000 learning epochs.
func (b *LSR) Exploit() ([]int, error) {
	return b.maximize(b.ThetaHat(), -1)
}
