// Package er implements the paper's robustness objective: the Expected
// Rank (ER) of a set of probing paths under probabilistic link failures
// (Definition 1), together with the three evaluation strategies the paper
// discusses:
//
//   - Exact enumeration of failure scenarios (exponential; for small
//     instances and ground truth in tests),
//   - Monte Carlo estimation over sampled scenarios (the MonteRoMe
//     oracle),
//   - the efficient probabilistic upper bound of Section IV-C, Eq. 7 (the
//     ProbRoMe oracle), built on an incremental basis that exposes each
//     dependent path's representation support R_q,
//   - the independence-assumption variant of the bound, Eq. 11, used by
//     the LSR learner where only path-level availabilities θ are known.
//
// All incremental oracles share the Incremental interface consumed by the
// RoMe greedy in package selection. Their Gain functions are non-increasing
// in the growing selected set, which is what makes lazy greedy evaluation
// exact.
package er

import (
	"robusttomo/internal/failure"
	"robusttomo/internal/tomo"
)

// Incremental is an ER oracle that supports the greedy selection loop:
// marginal gains against the currently committed set, followed by commits.
type Incremental interface {
	// Gain returns the oracle's estimate of ER(R ∪ {q}) − ER(R) for the
	// currently committed set R.
	Gain(path int) float64
	// Add commits path q into R.
	Add(path int)
	// Value returns the oracle's estimate of ER(R).
	Value() float64
}

// InitialGainer is an optional extension of Incremental for oracles that
// can produce every candidate's marginal gain against the *empty* committed
// set in one O(n) pass, without touching the elimination basis. The greedy's
// initial sweep uses it to skip n basis probes. InitialGains must store
// exactly Gain(i) into out[i]; it reports false (leaving out untouched)
// once anything has been committed, in which case callers fall back to
// per-path Gain.
type InitialGainer interface {
	Incremental
	InitialGains(out []float64) bool
}

// ExpectedAvailability returns EA(q) = Π_{l∈q} (1 − p_l) for candidate
// path q (Eq. 3 of the paper).
func ExpectedAvailability(pm *tomo.PathMatrix, model *failure.Model, path int) float64 {
	return model.PathAvailability(pm.EdgesOf(path))
}

// Availabilities returns EA for every candidate path.
func Availabilities(pm *tomo.PathMatrix, model *failure.Model) []float64 {
	out := make([]float64, pm.NumPaths())
	for i := range out {
		out[i] = ExpectedAvailability(pm, model, i)
	}
	return out
}
