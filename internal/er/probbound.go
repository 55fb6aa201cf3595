package er

import (
	"robusttomo/internal/failure"
	"robusttomo/internal/linalg"
	"robusttomo/internal/tomo"
)

// ProbBoundInc is the incremental oracle behind ProbRoMe: the efficient
// analytical upper bound on ER from Section IV-C of the paper (Eq. 7).
//
// The committed set R is partitioned into a maximal independent prefix
// R_ind (maintained as an incremental basis) and the dependent remainder
// R_dep. The bound values
//
//	ER(R) ≤ Σ_{q∈R_ind} EA(q) + Σ_{q∈R_dep} E[D_q]
//
// where E[D_q] = EA(q)·(1 − Π_{l∈L_Rq}(1 − p_l)) and L_Rq is the set of
// links on the basis paths q depends on (its representation support R_q)
// that q itself does not traverse: a dependent path contributes rank only
// when it survives and at least one path it depends on has failed (Eq. 6).
//
// Because a path's representation over an independent set is unique, R_q —
// and hence E[D_q] — is fixed from the moment q becomes dependent, so gains
// are non-increasing over the greedy run and lazy evaluation is exact.
type ProbBoundInc struct {
	pm    *tomo.PathMatrix
	model *failure.Model
	ea    []float64 // memoized EA per candidate path

	basis   *linalg.SparseBasis
	members []int // basis member -> candidate path index
	value   float64

	// Gain's support scratch (capacity: the link count); dependentGain marks
	// link l counted by seen[l] = gen, a fresh mark set per call.
	supportScratch []int
	seen           []uint64
	gen            uint64
}

var _ Incremental = (*ProbBoundInc)(nil)

// NewProbBoundInc returns an empty ProbBound oracle over the candidates.
func NewProbBoundInc(pm *tomo.PathMatrix, model *failure.Model) *ProbBoundInc {
	return &ProbBoundInc{
		pm:             pm,
		model:          model,
		ea:             Availabilities(pm, model),
		basis:          linalg.NewSparseBasis(pm.NumLinks()),
		supportScratch: make([]int, 0, pm.NumLinks()),
		seen:           make([]uint64, pm.NumLinks()),
	}
}

// Gain implements Incremental. A warm Gain allocates nothing.
func (pb *ProbBoundInc) Gain(path int) float64 {
	cols, vals := pb.pm.SparseRow(path)
	dep, support := pb.basis.Dependent(cols, vals, pb.supportScratch)
	if !dep {
		return pb.ea[path]
	}
	return pb.dependentGain(path, support)
}

// Add implements Incremental.
func (pb *ProbBoundInc) Add(path int) {
	added, _, support := pb.basis.Add(pb.pm.SparseRow(path))
	if added {
		pb.members = append(pb.members, path)
		pb.value += pb.ea[path]
		return
	}
	pb.value += pb.dependentGain(path, support)
}

// Value implements Incremental.
func (pb *ProbBoundInc) Value() float64 { return pb.value }

// dependentGain computes E[D_q] per Eq. 6 for a dependent candidate with
// the given representation support (basis member indices).
func (pb *ProbBoundInc) dependentGain(path int, support []int) float64 {
	if len(support) == 0 {
		// Zero row: never contributes rank.
		return 0
	}
	pb.gen++
	for _, l := range pb.pm.Path(path).Edges {
		pb.seen[l] = pb.gen
	}
	// Π (1 − p_l) over links of the support paths not on q, each counted
	// once, multiplied in support order and each path's link order.
	allUp := 1.0
	for _, member := range support {
		for _, l := range pb.pm.Path(pb.members[member]).Edges {
			if pb.seen[l] == pb.gen {
				continue
			}
			pb.seen[l] = pb.gen
			allUp *= 1 - pb.model.Prob(int(l))
		}
	}
	return pb.ea[path] * (1 - allUp)
}

// Bound computes the Eq. 7 upper bound non-incrementally for an explicit
// set of path indices, scanning them in the given order to fix the
// R_ind/R_dep partition (the paper picks an arbitrary maximal independent
// subset; the scan order realizes that choice).
func Bound(pm *tomo.PathMatrix, model *failure.Model, idx []int) float64 {
	pb := NewProbBoundInc(pm, model)
	for _, i := range idx {
		pb.Add(i)
	}
	return pb.Value()
}
