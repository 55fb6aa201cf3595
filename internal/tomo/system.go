package tomo

import (
	"fmt"

	"robusttomo/internal/linalg"
)

// System is the linear system A_S·x = y_S restricted to a set of probed,
// surviving paths S. It answers the two questions the paper's applications
// ask: which link metrics are uniquely identifiable, and what are their
// values.
type System struct {
	pm      *PathMatrix
	idx     []int // probed surviving path indices
	reduced *linalg.Matrix
	pivots  []int
	// yReduced carries the measurement vector through the same row
	// operations as the RREF, so identifiable values fall out directly.
	yReduced []float64
	hasY     bool
}

// NewSystem builds the system over the given surviving path indices with
// optional measurements y (parallel to idx). Pass nil y for
// identifiability-only analysis. Measurements are treated as exact: any
// redundancy conflict is an error. For noisy (e.g. epoch-averaged)
// measurements use NewSystemTol with a tolerance above the noise floor.
func NewSystem(pm *PathMatrix, idx []int, y []float64) (*System, error) {
	return NewSystemTol(pm, idx, y, linalg.DefaultTol)
}

// NewSystemTol is NewSystem with an explicit zero/consistency tolerance:
// residuals of magnitude ≤ tol in the reduction are treated as zero, so
// redundant measurements that disagree by no more than the tolerance are
// reconciled instead of rejected. Structural coefficients in path matrices
// are ±1, so any tol ≪ 1 preserves identifiability decisions.
func NewSystemTol(pm *PathMatrix, idx []int, y []float64, tol float64) (*System, error) {
	if y != nil && len(y) != len(idx) {
		return nil, fmt.Errorf("tomo: %d measurements for %d paths", len(y), len(idx))
	}
	if tol <= 0 || tol >= 0.5 {
		return nil, fmt.Errorf("tomo: tolerance %v out of (0, 0.5)", tol)
	}
	if err := pm.checkIndices(idx); err != nil {
		return nil, err
	}
	// Build the augmented matrix [A_S | y] and reduce it as one block so
	// the measurement column experiences the identical row operations.
	cols := pm.NumLinks()
	aug := linalg.NewMatrix(len(idx), cols+1)
	for r, i := range idx {
		copy(aug.Row(r)[:cols], pm.Row(i))
		if y != nil {
			aug.Row(r)[cols] = y[r]
		}
	}
	redAug, pivots := linalg.RREF(aug, tol)
	// A pivot in the augmented column would mean inconsistent measurements.
	for _, p := range pivots {
		if p == cols {
			return nil, fmt.Errorf("tomo: inconsistent measurements (no solution)")
		}
	}
	red := linalg.NewMatrix(len(idx), cols)
	yRed := make([]float64, len(idx))
	for r := 0; r < len(idx); r++ {
		copy(red.Row(r), redAug.Row(r)[:cols])
		yRed[r] = redAug.Row(r)[cols]
	}
	cp := make([]int, len(idx))
	copy(cp, idx)
	return &System{
		pm:       pm,
		idx:      cp,
		reduced:  red,
		pivots:   pivots,
		yReduced: yRed,
		hasY:     y != nil,
	}, nil
}

// Rank returns the rank of the surviving sub-matrix.
func (s *System) Rank() int { return len(s.pivots) }

// Identifiable reports, per link, whether its metric is uniquely
// determined by the system: link j is identifiable iff the unit vector e_j
// lies in the row space of A_S. With the RREF at hand this holds exactly
// when j is a pivot column whose pivot row has no other nonzero entries.
func (s *System) Identifiable() []bool {
	out := make([]bool, s.pm.NumLinks())
	for r, col := range s.pivots {
		row := s.reduced.Row(r)
		only := true
		for j, v := range row {
			if j != col && v != 0 {
				only = false
				break
			}
		}
		if only {
			out[col] = true
		}
	}
	return out
}

// NumIdentifiable returns the count of identifiable links (the paper's
// "link identifiability" metric).
func (s *System) NumIdentifiable() int {
	n := 0
	for _, ok := range s.Identifiable() {
		if ok {
			n++
		}
	}
	return n
}

// Solve returns the uniquely determined link metrics: values[j] is
// meaningful only where ident[j] is true. It requires measurements.
func (s *System) Solve() (values []float64, ident []bool, err error) {
	if !s.hasY {
		return nil, nil, fmt.Errorf("tomo: Solve requires measurements")
	}
	ident = s.Identifiable()
	values = make([]float64, s.pm.NumLinks())
	for r, col := range s.pivots {
		if ident[col] {
			values[col] = s.yReduced[r]
		}
	}
	return values, ident, nil
}

// Reconstructor recovers end-to-end measurements of unprobed candidate
// paths from the measurements of a probed independent set, following the
// algebraic monitoring approach: if q = Σ c_i·b_i over probed basis paths
// b_i, then y_q = Σ c_i·y_{b_i} by linearity of additive metrics.
type Reconstructor struct {
	pm    *PathMatrix
	basis *linalg.SparseBasis
	idx   []int     // probed path indices accepted into the basis
	y     []float64 // measurements parallel to idx
}

// NewReconstructor ingests probed paths and their measurements; dependent
// probed paths are dropped (their measurements are implied by the rest).
func NewReconstructor(pm *PathMatrix, idx []int, y []float64) (*Reconstructor, error) {
	if len(y) != len(idx) {
		return nil, fmt.Errorf("tomo: %d measurements for %d paths", len(y), len(idx))
	}
	if err := pm.checkIndices(idx); err != nil {
		return nil, err
	}
	rc := &Reconstructor{pm: pm, basis: linalg.NewSparseBasis(pm.NumLinks())}
	for k, i := range idx {
		if added, _, _ := rc.basis.Add(pm.SparseRow(i)); added {
			rc.idx = append(rc.idx, i)
			rc.y = append(rc.y, y[k])
		}
	}
	return rc, nil
}

// BasisSize returns the number of independent probed paths retained.
func (rc *Reconstructor) BasisSize() int { return rc.basis.Rank() }

// Reconstruct returns the measurement of candidate path i, if it is a
// linear combination of the probed basis. ok is false when the path is
// outside the span (its measurement cannot be derived) or i is not a
// candidate path index.
func (rc *Reconstructor) Reconstruct(i int) (float64, bool) {
	if i < 0 || i >= rc.pm.NumPaths() {
		return 0, false
	}
	coeffs, ok := rc.basis.Representation(rc.pm.SparseRow(i))
	if !ok {
		return 0, false
	}
	sum := 0.0
	for k, c := range coeffs {
		sum += c * rc.y[k]
	}
	return sum, true
}

// CoverageCount returns how many of all candidate paths are reconstructable
// from the probed basis (including the probed ones themselves).
func (rc *Reconstructor) CoverageCount() int {
	n := 0
	for i := 0; i < rc.pm.NumPaths(); i++ {
		if _, ok := rc.Reconstruct(i); ok {
			n++
		}
	}
	return n
}

// TrueMeasurements computes noiseless measurements y = A·x for ground-truth
// link metrics x, the forward model used across examples and tests.
func (pm *PathMatrix) TrueMeasurements(x []float64) ([]float64, error) {
	if len(x) != pm.NumLinks() {
		return nil, fmt.Errorf("tomo: %d metrics for %d links", len(x), pm.NumLinks())
	}
	return pm.mat.MulVec(x), nil
}
