// Package failure implements the link-failure model the paper adopts from
// Markopoulou et al., "Characterization of failures in an IP backbone"
// (INFOCOM'04): per-link failure counts follow a two-regime power law — the
// top 2.5% of links ("high-failure" links) with n(l) ∝ l^-0.73 and the rest
// with n(l) ∝ l^-1.35, anchored at n(1) = 1000 for the most failure-prone
// link. Counts are normalized into per-epoch failure probabilities.
//
// The paper does not state how normalized counts map onto an epoch-level
// probability, so the model exposes an intensity knob: probabilities are
// scaled so that the expected number of concurrently failed links per epoch
// equals a configurable target (DESIGN.md §4 documents this substitution;
// the experiment harness sweeps it in an ablation).
//
// Link availability is i.i.d. across epochs and independent across links,
// exactly as in the paper's Section III model.
package failure

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"robusttomo/internal/stats"
)

// Exponents of the two power-law regimes and the high-failure fraction,
// as specified in Section VI-A of the paper.
const (
	HighExponent = -0.73
	LowExponent  = -1.35
	HighFraction = 0.025
	AnchorCount  = 1000.0
)

// Model holds per-link failure probabilities for one network.
type Model struct {
	probs []float64 // indexed by link (edge) ID
}

// Config parameterizes NewModel.
type Config struct {
	Links int // number of links in the network
	// ExpectedFailures is the expected number of concurrently failed
	// links per epoch; probabilities are scaled to meet it. Must be
	// positive and less than Links.
	ExpectedFailures float64
	// Seed drives the random assignment of failure ranks to link IDs.
	Seed uint64
}

// NewModel builds the Markopoulou-style model: it ranks links 1..L in
// decreasing failure propensity, assigns power-law counts, normalizes, and
// scales to the configured expected number of concurrent failures. The
// rank-to-link assignment is a seeded random permutation so failure-prone
// links land anywhere in the topology.
func NewModel(cfg Config) (*Model, error) {
	if cfg.Links <= 0 {
		return nil, fmt.Errorf("failure: need at least one link, got %d", cfg.Links)
	}
	if cfg.ExpectedFailures <= 0 || cfg.ExpectedFailures >= float64(cfg.Links) {
		return nil, fmt.Errorf("failure: expected failures %.2f out of range (0, %d)", cfg.ExpectedFailures, cfg.Links)
	}
	counts := powerLawCounts(cfg.Links)
	total := 0.0
	for _, c := range counts {
		total += c
	}
	// Normalize then scale so Σ p_l = ExpectedFailures.
	probs := make([]float64, cfg.Links)
	for i, c := range counts {
		probs[i] = c / total * cfg.ExpectedFailures
		if probs[i] > 0.95 {
			probs[i] = 0.95 // keep every link occasionally available
		}
	}
	// Scatter ranks over link IDs.
	rng := stats.NewRNG(cfg.Seed, 0xFA11)
	perm := rng.Perm(cfg.Links)
	scattered := make([]float64, cfg.Links)
	for rank, link := range perm {
		scattered[link] = probs[rank]
	}
	return &Model{probs: scattered}, nil
}

// powerLawCounts returns the failure count per rank (rank 0 = most
// failure-prone link).
func powerLawCounts(links int) []float64 {
	counts := make([]float64, links)
	highCut := int(math.Ceil(HighFraction * float64(links)))
	if highCut < 1 {
		highCut = 1
	}
	// Anchor both regimes so the curve is continuous at the cut and
	// n(1) = AnchorCount.
	for l := 1; l <= links; l++ {
		var c float64
		if l <= highCut {
			c = AnchorCount * math.Pow(float64(l), HighExponent)
		} else {
			// Continuity: low regime anchored at the value the high
			// regime reaches at the cut.
			base := AnchorCount * math.Pow(float64(highCut), HighExponent)
			c = base * math.Pow(float64(l)/float64(highCut), LowExponent)
		}
		counts[l-1] = c
	}
	return counts
}

// FromDurations builds a model from operational failure statistics: each
// link's mean time between failures (MTBF) and mean time to repair (MTTR).
// The steady-state per-epoch failure probability is the classical
// unavailability MTTR/(MTBF + MTTR) — the fraction of epochs the link
// spends down, matching the paper's observation that repair times exceed
// the measurement-collection window (so a failure observed in an epoch
// means the link is down for that whole epoch). Both vectors are in the
// same time unit; entries must be positive.
func FromDurations(mtbf, mttr []float64) (*Model, error) {
	if len(mtbf) == 0 || len(mtbf) != len(mttr) {
		return nil, fmt.Errorf("failure: %d MTBF entries, %d MTTR entries", len(mtbf), len(mttr))
	}
	probs := make([]float64, len(mtbf))
	for i := range mtbf {
		if !(mtbf[i] > 0) || !(mttr[i] > 0) {
			return nil, fmt.Errorf("failure: link %d: MTBF %v and MTTR %v must be positive", i, mtbf[i], mttr[i])
		}
		probs[i] = mttr[i] / (mtbf[i] + mttr[i])
	}
	return FromProbabilities(probs)
}

// FromProbabilities builds a model directly from per-link probabilities,
// for tests and custom scenarios. Probabilities must lie in [0, 1).
func FromProbabilities(probs []float64) (*Model, error) {
	if len(probs) == 0 {
		return nil, fmt.Errorf("failure: empty probability vector")
	}
	cp := make([]float64, len(probs))
	for i, p := range probs {
		if p < 0 || p >= 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("failure: probability %v for link %d out of [0,1)", p, i)
		}
		cp[i] = p
	}
	return &Model{probs: cp}, nil
}

// Links returns the number of links covered by the model.
func (m *Model) Links() int { return len(m.probs) }

// Prob returns the failure probability of link l.
func (m *Model) Prob(l int) float64 { return m.probs[l] }

// Probs returns a copy of all link failure probabilities.
func (m *Model) Probs() []float64 {
	out := make([]float64, len(m.probs))
	copy(out, m.probs)
	return out
}

// ExpectedConcurrentFailures returns Σ p_l, the mean number of links down
// in an epoch.
func (m *Model) ExpectedConcurrentFailures() float64 {
	sum := 0.0
	for _, p := range m.probs {
		sum += p
	}
	return sum
}

// Scenario is one epoch's failure vector: Failed[l] is true when link l is
// down.
type Scenario struct {
	Failed []bool
}

// NumFailed returns the number of failed links in the scenario.
func (s Scenario) NumFailed() int {
	n := 0
	for _, f := range s.Failed {
		if f {
			n++
		}
	}
	return n
}

// Sample draws one epoch's independent failure vector.
func (m *Model) Sample(rng *rand.Rand) Scenario {
	failed := make([]bool, len(m.probs))
	for i, p := range m.probs {
		failed[i] = stats.Bernoulli(rng, p)
	}
	return Scenario{Failed: failed}
}

// SampleColumn implements ColumnSampler: it fills link l's failure
// bit-column over n scenarios by geometric skip sampling. Failures are
// i.i.d. Bernoulli(p) across scenarios, so the gap between consecutive
// failures is geometric; drawing the gaps directly via inverse transform
// (floor(ln U / ln(1−p))) costs one uniform per failure — about Σ_l p_l·n
// draws for the whole panel instead of links·n. The column realization
// differs from scenario-major Sample draws, but is equally distributed and
// deterministic in rng (links are filled in ascending order).
func (m *Model) SampleColumn(rng *rand.Rand, l, n int, col []uint64) {
	p := m.probs[l]
	if p <= 0 {
		return
	}
	if p >= 1 {
		for s := 0; s < n; s++ {
			col[s>>6] |= 1 << (s & 63)
		}
		return
	}
	logq := math.Log1p(-p)
	pos := -1
	for {
		u := rng.Float64()
		if u == 0 {
			return // log(0) = −Inf: an infinite gap, i.e. no further failure
		}
		gap := math.Log(u) / logq
		if gap >= float64(n) {
			return // also guards the int conversion against overflow
		}
		pos += 1 + int(gap)
		if pos >= n {
			return
		}
		col[pos>>6] |= 1 << (pos & 63)
	}
}

// SampleN draws n independent scenarios.
func (m *Model) SampleN(rng *rand.Rand, n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = m.Sample(rng)
	}
	return out
}

// ExactK returns a scenario with exactly k failed links drawn without
// replacement, weighted by failure probability. Used by the Fig. 3 style
// "k concurrent failures" experiments.
func (m *Model) ExactK(rng *rand.Rand, k int) (Scenario, error) {
	if k < 0 || k > len(m.probs) {
		return Scenario{}, fmt.Errorf("failure: k=%d out of range [0,%d]", k, len(m.probs))
	}
	failed := make([]bool, len(m.probs))
	weights := make([]float64, len(m.probs))
	copy(weights, m.probs)
	for picked := 0; picked < k; picked++ {
		total := 0.0
		for i, w := range weights {
			if !failed[i] {
				total += w
			}
		}
		if total <= 0 {
			// Degenerate weights: fall back to uniform over the rest.
			var candidates []int
			for i := range weights {
				if !failed[i] {
					candidates = append(candidates, i)
				}
			}
			failed[candidates[rng.IntN(len(candidates))]] = true
			continue
		}
		x := rng.Float64() * total
		for i, w := range weights {
			if failed[i] {
				continue
			}
			x -= w
			if x <= 0 {
				failed[i] = true
				break
			}
		}
	}
	return Scenario{Failed: failed}, nil
}

// SourceName implements ScenarioSource.
func (m *Model) SourceName() string { return SourceBernoulli }

// Marginals implements ScenarioSource: for the i.i.d. Bernoulli process
// the stationary marginals are the per-link probabilities themselves.
func (m *Model) Marginals() []float64 { return m.Probs() }

// Snapshot implements ScenarioSource. The process is i.i.d. across
// epochs, so there is no cross-epoch state to capture.
func (m *Model) Snapshot() SourceState { return SourceState{} }

// Restore implements ScenarioSource.
func (m *Model) Restore(s SourceState) error {
	return s.restoreInto(SourceBernoulli, nil)
}

// PathAvailability returns the expected availability of a path crossing the
// given links: Π (1 − p_l) over the distinct links, per Eq. 3 of the paper,
// multiplied in listed order (a link listed twice counts once).
func (m *Model) PathAvailability(links []int) float64 {
	ea := 1.0
	for k, l := range links {
		if !slices.Contains(links[:k], l) {
			ea *= 1 - m.probs[l]
		}
	}
	return ea
}
