package selection

import (
	"sort"

	"robusttomo/internal/linalg"
	"robusttomo/internal/tomo"
)

// SelectPath is the baseline from Chen et al. (SIGCOMM'04) as used by the
// paper: it extracts an arbitrary maximal independent set of candidate
// paths (a basis) with a rank-revealing pivoted Cholesky factorization of
// the Gram matrix, oblivious to failures and costs.
func SelectPath(pm *tomo.PathMatrix) []int {
	return linalg.PivotedCholeskyRows(pm.Matrix(), 1e-7)
}

// SelectPathBudgeted is the paper's Section VI-B adaptation of SelectPath
// to a probing budget: start from the Cholesky basis; if it costs less
// than the budget, greedily add non-basis paths in increasing cost order
// while they fit; if it exceeds the budget, greedily remove basis paths in
// decreasing cost order until it fits.
func SelectPathBudgeted(pm *tomo.PathMatrix, costs []float64, budget float64) (Result, error) {
	n := pm.NumPaths()
	if err := checkBudgeted(n, costs, budget); err != nil {
		return Result{}, err
	}
	basis := SelectPath(pm)
	inBasis := make([]bool, n)
	total := 0.0
	for _, q := range basis {
		inBasis[q] = true
		total += costs[q]
	}

	selected := append([]int{}, basis...)
	if total > budget {
		// Remove most expensive first.
		sort.SliceStable(selected, func(a, b int) bool {
			if costs[selected[a]] != costs[selected[b]] {
				return costs[selected[a]] > costs[selected[b]]
			}
			return selected[a] < selected[b]
		})
		for len(selected) > 0 && total > budget {
			total -= costs[selected[0]]
			selected = selected[1:]
		}
	} else {
		// Add cheapest non-basis paths while the budget allows.
		var rest []int
		for q := 0; q < n; q++ {
			if !inBasis[q] {
				rest = append(rest, q)
			}
		}
		sort.SliceStable(rest, func(a, b int) bool {
			if costs[rest[a]] != costs[rest[b]] {
				return costs[rest[a]] < costs[rest[b]]
			}
			return rest[a] < rest[b]
		})
		for _, q := range rest {
			if total+costs[q] > budget {
				continue
			}
			selected = append(selected, q)
			total += costs[q]
		}
	}
	return Result{Selected: selected, Cost: total}, nil
}
