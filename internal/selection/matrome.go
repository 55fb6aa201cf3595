package selection

import (
	"fmt"
	"sort"

	"robusttomo/internal/tomo"
)

// MatRoMe solves the paper's Section IV-B setting: unit path costs and a
// linear-independence constraint, with the budget counting paths. Because
// ER is modular on independent sets (Lemma 8, ER = Σ EA), the greedy that
// scans candidates in decreasing expected availability and keeps those
// independent of the picks so far is optimal (Theorem 9).
//
// The independence test is rank over the reals, on a rank-only SparseBasis.
// The paper's footnote 3 computes that rank by singular value
// decomposition; it is only a rank, so any exact rank test accepts the
// same paths.
//
// availability must hold EA(q) (or any modular weight) per candidate.
func MatRoMe(pm *tomo.PathMatrix, availability []float64, budget int) (Result, error) {
	n := pm.NumPaths()
	if len(availability) != n {
		return Result{}, fmt.Errorf("selection: %d availabilities for %d paths", len(availability), n)
	}
	if budget < 0 {
		return Result{}, fmt.Errorf("selection: negative budget %d", budget)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if availability[order[a]] != availability[order[b]] {
			return availability[order[a]] > availability[order[b]]
		}
		return order[a] < order[b] // deterministic tie-break
	})

	res := Result{}
	basis := pm.NewRankBasis()
	for _, q := range order {
		if len(res.Selected) >= budget {
			break
		}
		res.GainEvaluations++
		if added, _, _ := basis.Add(pm.SparseRow(q)); !added {
			continue
		}
		res.Selected = append(res.Selected, q)
		res.Cost++
		res.Objective += availability[q]
	}
	return res, nil
}
