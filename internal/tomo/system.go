package tomo

import (
	"fmt"
	"math"

	"robusttomo/internal/linalg"
)

// System is the linear system A_S·x = y_S restricted to a set of probed,
// surviving paths S. It answers the two questions the paper's applications
// ask: which link metrics are uniquely identifiable, and what are their
// values.
//
// The rows of S enter a support-tracking linalg.SparseBasis in the given
// order; the basis keeps the rows it accepts, and y keeps their
// measurements, so any vector in the span is evaluated through its
// Representation over the accepted rows. Solve reduces in the basis's own
// scratch, so one System must not Solve on several goroutines at once.
type System struct {
	pm    *PathMatrix
	basis *linalg.SparseBasis
	y     []float64 // measurements of the accepted rows, in acceptance order
	hasY  bool
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
// the elimination treats magnitudes ≤ tol as zero, and a path whose row
// depends on earlier rows of idx may have a measurement that differs from
// the value those rows imply by at most tol; more is an inconsistency. The
// solved values then rest on the earlier rows. Structural coefficients in
// path matrices are ±1, so any tol ≪ 1 preserves identifiability decisions.
// Every measurement must be finite.
func NewSystemTol(pm *PathMatrix, idx []int, y []float64, tol float64) (*System, error) {
	if y != nil && len(y) != len(idx) {
		return nil, fmt.Errorf("tomo: %d measurements for %d paths", len(y), len(idx))
	}
	if !(tol > 0 && tol < 0.5) { // also rejects NaN
		return nil, fmt.Errorf("tomo: tolerance %v out of (0, 0.5)", tol)
	}
	if err := pm.checkIndices(idx); err != nil {
		return nil, err
	}
	if err := checkFinite(idx, y); err != nil {
		return nil, err
	}
	s := &System{pm: pm, basis: linalg.NewSparseBasisTol(pm.NumLinks(), tol), hasY: y != nil}
	for k, i := range idx {
		cols, vals := pm.SparseRow(i)
		added, _, _ := s.basis.Add(cols, vals)
		if y == nil {
			continue
		}
		if added {
			s.y = append(s.y, y[k])
		} else if v, _ := implied(s.basis, s.y, cols, vals); math.Abs(v-y[k]) > tol {
			return nil, fmt.Errorf("tomo: inconsistent measurements (no solution)")
		}
	}
	return s, nil
}

// checkFinite returns an error naming the first NaN or infinite measurement
// of y (parallel to idx). One such value would turn every result solved
// through its row into NaN.
func checkFinite(idx []int, y []float64) error {
	for k, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tomo: measurement %d (path %d) is %v", k, idx[k], v)
		}
	}
	return nil
}

// implied evaluates the sparse row (cols, vals) through its representation
// over the basis members, weighted by the members' measurements y: by
// linearity of additive metrics, the measurement the row must have. ok is
// false when the row is outside the span.
func implied(basis *linalg.SparseBasis, y []float64, cols []int, vals []float64) (v float64, ok bool) {
	coeffs, ok := basis.Representation(cols, vals)
	for k, c := range coeffs {
		v += c * y[k]
	}
	return v, ok
}

// Rank returns the rank of the surviving sub-matrix.
func (s *System) Rank() int { return s.basis.Rank() }

// unit is the value slice of a unit vector e_j in sparse form.
var unit = []float64{1}

// Identifiable reports, per link, whether its metric is uniquely
// determined by the system: link j is identifiable iff the unit vector e_j
// lies in the row space of A_S.
func (s *System) Identifiable() []bool {
	out := make([]bool, s.pm.NumLinks())
	ws := linalg.NewWorkspace(len(out))
	for j := range out {
		out[j] = s.basis.InSpanWith([]int{j}, unit, ws)
	}
	return out
}

// NumIdentifiable returns the count of identifiable links (the paper's
// "link identifiability" metric): the single-entry rows of the reduced
// basis, each of which is some e_j (DESIGN.md §5).
func (s *System) NumIdentifiable() int { return s.basis.UnitRows() }

// Solve returns the uniquely determined link metrics: values[j] is
// meaningful only where ident[j] is true. It requires measurements.
func (s *System) Solve() (values []float64, ident []bool, err error) {
	if !s.hasY {
		return nil, nil, fmt.Errorf("tomo: Solve requires measurements")
	}
	values = make([]float64, s.pm.NumLinks())
	ident = make([]bool, len(values))
	for j := range values {
		values[j], ident[j] = implied(s.basis, s.y, []int{j}, unit)
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
	y     []float64 // measurements of the probed paths accepted into the basis
}

// NewReconstructor ingests probed paths and their measurements; dependent
// probed paths are dropped (their measurements are implied by the rest).
// Every measurement must be finite.
func NewReconstructor(pm *PathMatrix, idx []int, y []float64) (*Reconstructor, error) {
	if len(y) != len(idx) {
		return nil, fmt.Errorf("tomo: %d measurements for %d paths", len(y), len(idx))
	}
	if err := pm.checkIndices(idx); err != nil {
		return nil, err
	}
	if err := checkFinite(idx, y); err != nil {
		return nil, err
	}
	rc := &Reconstructor{pm: pm, basis: linalg.NewSparseBasis(pm.NumLinks())}
	for k, i := range idx {
		if added, _, _ := rc.basis.Add(pm.SparseRow(i)); added {
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
	cols, vals := rc.pm.SparseRow(i)
	return implied(rc.basis, rc.y, cols, vals)
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
// link metrics x, the forward model used across examples and tests: each
// path's metric is the sum of x over its links, in ascending link order.
func (pm *PathMatrix) TrueMeasurements(x []float64) ([]float64, error) {
	if len(x) != pm.NumLinks() {
		return nil, fmt.Errorf("tomo: %d metrics for %d links", len(x), pm.NumLinks())
	}
	y := make([]float64, len(pm.cols))
	for i, cols := range pm.cols {
		for _, j := range cols {
			y[i] += x[j]
		}
	}
	return y, nil
}
