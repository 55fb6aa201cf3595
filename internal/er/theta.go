package er

import (
	"math/rand/v2"

	"robusttomo/internal/linalg"
	"robusttomo/internal/tomo"
)

// ThetaBoundInc is the independence-assumption variant of the ER bound
// (Eq. 11 of the paper), used by the LSR learner: instead of link failure
// probabilities it consumes per-path availabilities θ_i (learned
// empirically, possibly inflated by confidence intervals) and assumes path
// availabilities are independent:
//
//	ER(R; θ) ≤ Σ_{q∈R_ind} θ_q + Σ_{q∈R_dep} θ_q·(1 − Π_{j∈R_q} θ_j).
type ThetaBoundInc struct {
	pm    *tomo.PathMatrix
	theta []float64

	basis   *linalg.SparseBasis
	members []int
	value   float64
	adds    int

	// supportScratch backs the representation support reported by Gain's
	// dependence probe. Its capacity is the link count, which bounds any
	// support, so a greedy sweep's many probes allocate nothing.
	supportScratch []int
}

var (
	_ Incremental   = (*ThetaBoundInc)(nil)
	_ InitialGainer = (*ThetaBoundInc)(nil)
)

// NewThetaBoundInc returns an empty oracle for the given per-path
// availabilities. Values are clamped into [0, 1] so UCB-inflated θ̂ + C
// inputs remain probabilities, as in the LSR analysis.
func NewThetaBoundInc(pm *tomo.PathMatrix, theta []float64) *ThetaBoundInc {
	tb := &ThetaBoundInc{
		pm:             pm,
		basis:          linalg.NewSparseBasis(pm.NumLinks()),
		supportScratch: make([]int, 0, pm.NumLinks()),
	}
	tb.Reset(theta)
	return tb
}

// Reset re-arms the oracle with new availabilities, emptying the committed
// set while keeping all allocated storage. A learner that re-optimizes
// every epoch resets one persistent oracle instead of building a fresh one;
// the resulting gains are identical to a newly constructed oracle's.
func (tb *ThetaBoundInc) Reset(theta []float64) {
	if cap(tb.theta) < len(theta) {
		tb.theta = make([]float64, len(theta))
	}
	tb.theta = tb.theta[:len(theta)]
	for i, v := range theta {
		switch {
		case v < 0:
			tb.theta[i] = 0
		case v > 1:
			tb.theta[i] = 1
		default:
			tb.theta[i] = v
		}
	}
	tb.basis.Reset()
	tb.members = tb.members[:0]
	tb.value = 0
	tb.adds = 0
}

// Gain implements Incremental.
func (tb *ThetaBoundInc) Gain(path int) float64 {
	cols, vals := tb.pm.SparseRow(path)
	dep, support := tb.basis.Dependent(cols, vals, tb.supportScratch)
	if !dep {
		return tb.theta[path]
	}
	return tb.dependentGain(path, support)
}

// InitialGains implements InitialGainer: against the empty committed set,
// every path with at least one link is independent, so its gain is exactly
// θ_q; zero-edge paths contribute 0 (the zero row is already in the span).
func (tb *ThetaBoundInc) InitialGains(out []float64) bool {
	if tb.adds > 0 {
		return false
	}
	for i := range out {
		if len(tb.pm.Path(i).Edges) == 0 {
			out[i] = 0
			continue
		}
		out[i] = tb.theta[i]
	}
	return true
}

// Add implements Incremental.
func (tb *ThetaBoundInc) Add(path int) {
	tb.adds++
	added, _, support := tb.basis.Add(tb.pm.SparseRow(path))
	if added {
		tb.members = append(tb.members, path)
		tb.value += tb.theta[path]
		return
	}
	tb.value += tb.dependentGain(path, support)
}

// Value implements Incremental.
func (tb *ThetaBoundInc) Value() float64 { return tb.value }

func (tb *ThetaBoundInc) dependentGain(path int, support []int) float64 {
	if len(support) == 0 {
		return 0
	}
	allUp := 1.0
	for _, member := range support {
		allUp *= tb.theta[tb.members[member]]
	}
	return tb.theta[path] * (1 - allUp)
}

// ExactTheta computes ER(R; θ) exactly under the independence assumption by
// enumerating the 2^|R| path-availability patterns. Exponential in |R|;
// test-sized inputs only.
func ExactTheta(pm *tomo.PathMatrix, theta []float64, idx []int) float64 {
	n := len(idx)
	if n == 0 {
		return 0
	}
	total := 0.0
	up := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		prob := 1.0
		up = up[:0]
		for b, i := range idx {
			if mask&(1<<b) != 0 {
				prob *= theta[i]
				up = append(up, i)
			} else {
				prob *= 1 - theta[i]
			}
		}
		if prob == 0 {
			continue
		}
		total += float64(pm.RankOf(up)) * prob
	}
	return total
}

// SampleTheta draws one availability realization per path under the
// independence assumption (used by simulation tests of the learner).
func SampleTheta(theta []float64, rng *rand.Rand) []bool {
	out := make([]bool, len(theta))
	for i, p := range theta {
		out[i] = rng.Float64() < p
	}
	return out
}
