// Package tomo is the network tomography core: it assembles the path
// matrix A that links end-to-end measurements to unknown additive link
// metrics (A·x = y, Eq. 1 of the paper), evaluates the rank of surviving
// path subsets under failure scenarios, determines link identifiability,
// solves for identifiable link metrics, and reconstructs the complete set
// of end-to-end measurements from a probed subset (the scalable-monitoring
// application of Chen et al. that the paper builds on).
package tomo

import (
	"fmt"
	"slices"
	"sync"

	"robusttomo/internal/failure"
	"robusttomo/internal/linalg"
	"robusttomo/internal/routing"
)

// PathMatrix is the 0/1 matrix A of candidate paths over links: A[i][j] = 1
// iff candidate path i traverses link j.
type PathMatrix struct {
	paths []routing.Path
	links int
	mat   *linalg.Matrix

	// cols[i] is path i's links, sorted without repeats, carved from one
	// slab; ones backs every row's values (see SparseRow).
	cols [][]int
	ones []float64

	// basisPool recycles rank-only elimination bases across RankOf /
	// RankAndIdentifiable / SelectBasisIndices calls, so evaluation loops
	// that rank thousands of row subsets reuse warmed-up storage instead of
	// allocating a fresh basis per call. Safe under concurrent trials: the
	// pool hands each goroutine its own basis.
	basisPool sync.Pool
}

// NewPathMatrix builds A from candidate paths over a network with the given
// number of links. Paths referencing out-of-range links are rejected. A
// path may list a link more than once or out of order; its row holds each
// link once.
func NewPathMatrix(paths []routing.Path, links int) (*PathMatrix, error) {
	if links <= 0 {
		return nil, fmt.Errorf("tomo: need positive link count, got %d", links)
	}
	m := linalg.NewMatrix(len(paths), links)
	total := 0
	for _, p := range paths {
		total += len(p.Edges)
	}
	slab := make([]int, 0, total)
	cols := make([][]int, len(paths))
	for i, p := range paths {
		row := m.Row(i)
		start := len(slab)
		for _, e := range p.Edges {
			if e < 0 || int(e) >= links {
				return nil, fmt.Errorf("tomo: path %d uses link %d outside [0,%d)", i, e, links)
			}
			row[e] = 1
			slab = append(slab, int(e))
		}
		slices.Sort(slab[start:])
		slab = slab[:start+len(slices.Compact(slab[start:]))]
		cols[i] = slab[start:len(slab):len(slab)]
	}
	cp := make([]routing.Path, len(paths))
	copy(cp, paths)
	return &PathMatrix{paths: cp, links: links, mat: m, cols: cols, ones: slices.Repeat([]float64{1}, links)}, nil
}

// NumPaths returns the number of candidate paths (rows).
func (pm *PathMatrix) NumPaths() int { return len(pm.paths) }

// NumLinks returns the number of links (columns).
func (pm *PathMatrix) NumLinks() int { return pm.links }

// checkIndices rejects path indices outside [0, NumPaths()).
func (pm *PathMatrix) checkIndices(idx []int) error {
	for _, i := range idx {
		if i < 0 || i >= len(pm.paths) {
			return fmt.Errorf("tomo: path index %d outside [0,%d)", i, len(pm.paths))
		}
	}
	return nil
}

// Path returns candidate path i.
func (pm *PathMatrix) Path(i int) routing.Path { return pm.paths[i] }

// Paths returns a copy of all candidate paths.
func (pm *PathMatrix) Paths() []routing.Path {
	out := make([]routing.Path, len(pm.paths))
	copy(out, pm.paths)
	return out
}

// Row returns the 0/1 incidence row of path i (a live view; callers must
// not modify it).
func (pm *PathMatrix) Row(i int) []float64 { return pm.mat.Row(i) }

// SparseRow returns row i in the form every linalg.SparseBasis operation
// takes: the path's links sorted ascending without repeats, and a value
// of 1 for each. Both are live views; callers must not modify them.
func (pm *PathMatrix) SparseRow(i int) (cols []int, vals []float64) {
	cols = pm.cols[i]
	return cols, pm.ones[:len(cols):len(cols)]
}

// Matrix returns the full path matrix (a live view).
func (pm *PathMatrix) Matrix() *linalg.Matrix { return pm.mat }

// Rank returns rank(A) over all candidate paths.
func (pm *PathMatrix) Rank() int { return linalg.Rank(pm.mat) }

// RankOf returns the rank of the sub-matrix formed by the given path
// indices. Incremental sparse elimination exploits the sparsity of path
// rows; the result is identical to dense Gaussian elimination (covered by
// the linalg differential tests plus TestRankOfMatchesDense here). The
// elimination basis comes from the matrix's pool, so looping callers pay no
// per-call allocation; hot loops that want full control can hold their own
// basis and call RankOfWith directly.
func (pm *PathMatrix) RankOf(idx []int) int {
	if len(idx) == 0 {
		return 0
	}
	basis := pm.acquireBasis()
	r := pm.RankOfWith(idx, basis)
	pm.basisPool.Put(basis)
	return r
}

// NewRankBasis returns an empty rank-only elimination basis sized for this
// matrix, for callers that rank many subsets and want to reuse one basis
// (see RankOfWith).
func (pm *PathMatrix) NewRankBasis() *linalg.SparseBasis {
	return linalg.NewSparseBasisRankOnly(pm.links)
}

// RankOfWith is RankOf against a caller-held basis (obtained from
// NewRankBasis), which it resets before use: the steady state performs no
// allocation. Results are identical to RankOf.
func (pm *PathMatrix) RankOfWith(idx []int, basis *linalg.SparseBasis) int {
	pm.addRows(idx, basis)
	return basis.Rank()
}

// addRows resets basis and adds the rows of idx until it reaches full
// column rank, after which no row changes it.
func (pm *PathMatrix) addRows(idx []int, basis *linalg.SparseBasis) {
	basis.Reset()
	for _, i := range idx {
		basis.Add(pm.SparseRow(i))
		if basis.Rank() == pm.links {
			return
		}
	}
}

// acquireBasis takes a rank-only basis from the pool (or makes one).
// Callers must return it with basisPool.Put; the next user resets it.
func (pm *PathMatrix) acquireBasis() *linalg.SparseBasis {
	if b, ok := pm.basisPool.Get().(*linalg.SparseBasis); ok {
		return b
	}
	return pm.NewRankBasis()
}

// Available reports whether path i survives the scenario (none of its
// links failed).
func (pm *PathMatrix) Available(i int, sc failure.Scenario) bool {
	for _, e := range pm.paths[i].Edges {
		if sc.Failed[e] {
			return false
		}
	}
	return true
}

// SurvivalMask writes into dst (reusing its storage when large enough) the
// bit-packed mask of panel scenarios under which path i survives: bit s is
// set iff none of the path's links failed in scenario s. One call costs
// |E_path| word-OR passes over the set's bit-columns instead of the
// n × |E_path| bool loads of calling Available per scenario; bit s of the
// result always equals Available(i, scenario s) (see TestSurvivalMask).
func (pm *PathMatrix) SurvivalMask(ss *failure.ScenarioSet, i int, dst []uint64) []uint64 {
	dst = ss.ResetMask(dst)
	for _, e := range pm.paths[i].Edges {
		ss.OrLink(dst, int(e))
	}
	ss.Complement(dst)
	return dst
}

// Surviving filters idx down to the paths available under the scenario.
func (pm *PathMatrix) Surviving(idx []int, sc failure.Scenario) []int {
	return pm.SurvivingInto(nil, idx, sc)
}

// SurvivingInto is Surviving appending into dst[:0], so scenario-evaluation
// loops reuse one buffer across scenarios.
func (pm *PathMatrix) SurvivingInto(dst []int, idx []int, sc failure.Scenario) []int {
	dst = dst[:0]
	for _, i := range idx {
		if pm.Available(i, sc) {
			dst = append(dst, i)
		}
	}
	return dst
}

// RankUnder returns the rank delivered by the subset idx in the scenario:
// the rank of the rows of the surviving paths.
func (pm *PathMatrix) RankUnder(idx []int, sc failure.Scenario) int {
	return pm.RankOf(pm.Surviving(idx, sc))
}

// EdgesOf returns the link IDs of path i as ints (convenience for the
// failure and ER packages).
func (pm *PathMatrix) EdgesOf(i int) []int {
	edges := pm.paths[i].Edges
	out := make([]int, len(edges))
	for k, e := range edges {
		out[k] = int(e)
	}
	return out
}

// LinkCoverage returns, per link, how many of the given candidate paths
// traverse it. Links with zero coverage can never be measured (let alone
// identified) by any selection from the candidates — a monitor-placement
// diagnostic.
func (pm *PathMatrix) LinkCoverage(idx []int) []int {
	cov := make([]int, pm.links)
	for _, i := range idx {
		for _, e := range pm.paths[i].Edges {
			cov[e]++
		}
	}
	return cov
}

// UncoveredLinks returns the links no candidate path traverses, in
// ascending order.
func (pm *PathMatrix) UncoveredLinks() []int {
	all := make([]int, pm.NumPaths())
	for i := range all {
		all[i] = i
	}
	var out []int
	for l, c := range pm.LinkCoverage(all) {
		if c == 0 {
			out = append(out, l)
		}
	}
	return out
}

// RankAndIdentifiable evaluates a path subset in one sparse elimination
// pass: the rank of its rows and the number of identifiable links. Link j
// is identifiable iff the unit vector e_j lies in the row space, which in
// the reduced basis holds iff a stored row equals e_j (UnitRows: O(rank),
// no per-link probe). Results match System.NumIdentifiable (see
// TestRankAndIdentifiable); this path avoids the dense RREF and is what
// the evaluation harness and the closed loop use.
func (pm *PathMatrix) RankAndIdentifiable(idx []int) (rank, identifiable int) {
	basis := pm.acquireBasis()
	rank, identifiable = pm.RankAndIdentifiableWith(idx, basis)
	pm.basisPool.Put(basis)
	return rank, identifiable
}

// RankAndIdentifiableWith is RankAndIdentifiable against a caller-held
// basis (see NewRankBasis), which it resets before use.
func (pm *PathMatrix) RankAndIdentifiableWith(idx []int, basis *linalg.SparseBasis) (rank, identifiable int) {
	pm.addRows(idx, basis)
	return basis.Rank(), basis.UnitRows()
}

// SelectBasisIndices returns a maximal independent subset of the given
// candidate indices, scanning in the given order (first-come greedy).
func (pm *PathMatrix) SelectBasisIndices(order []int) []int {
	basis := pm.acquireBasis()
	basis.Reset()
	var out []int
	for _, i := range order {
		if added, _, _ := basis.Add(pm.SparseRow(i)); added {
			out = append(out, i)
		}
	}
	pm.basisPool.Put(basis)
	return out
}
