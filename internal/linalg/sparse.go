package linalg

import "slices"

// sparseRow is a vector stored as parallel (col, val) pairs, sorted by
// column.
type sparseRow struct {
	cols []int
	vals []float64
}

func (r *sparseRow) nnz() int { return len(r.cols) }

// SparseBasis maintains a growing set of linearly independent row vectors
// in fully reduced (RREF) form, stored sparsely, and tracks for every
// accepted vector the coefficients of its representation in terms of the
// previously accepted ones.
//
// Every operation takes a vector as parallel (cols, vals) slices, columns
// sorted ascending within [0, dim): the form of tomo.PathMatrix.SparseRow.
//
// Members are addressed by acceptance order (0, 1, 2, ...). When Add
// rejects a vector as dependent it reports the support of its unique
// representation over the members — the paper's R_q, the set of basis
// paths a dependent path q depends on, which the ER bound consumes.
//
// Invariant: every stored row has value 1 in its own pivot column and 0 in
// every other row's pivot column, so reducing an external vector against
// the rows in a single pass is exact. Path-matrix rows carry a handful of
// nonzeros across hundreds of columns, and even after elimination fill-in
// the reduced rows of ISP instances stay far from dense, so row updates
// cost O(nnz) instead of O(dim). Acceptance is differential-tested against
// the exact big.Rat rank (RankExact).
//
// Two summaries of the stored rows skip work whose result is already
// known: unit flags the rows that are unit vectors, which a reduction clears
// without reading, and colCnt counts the rows holding each column, which
// ends Add's invariant-restoring pass once every holder of the new pivot
// column is found. Both are recounted against the rows by
// FuzzSparseVsExactRank.
type SparseBasis struct {
	dim int
	tol float64
	// rankOnly disables representation-support tracking (combos): Add and
	// Dependent then report nil supports. Acceptance decisions, ranks and
	// row evolution are bit-identical to the tracking mode — the combo
	// bookkeeping never feeds back into the reduction — while Add skips
	// the O(members) coefficient upkeep and its allocations. Monte Carlo
	// scenario panels, which only consume ranks, run in this mode.
	rankOnly bool

	rows   []sparseRow
	pivots []int
	// pivotOf[col] is the row whose pivot is col, or -1. Gives O(1)
	// "which row eliminates this column" lookups during reduction.
	pivotOf []int
	combos  [][]float64
	// unit[i] reports that row i's only entry sits in its pivot column, so
	// eliminating with it just zeroes that column.
	unit []bool
	// colCnt[col] is the number of stored rows with an entry at col. Stored
	// entries always exceed tol, so these are exactly the rows whose value
	// at col is not near zero.
	colCnt []int32

	// mergeCols/mergeVals are the axpy merge scratch: each RREF-restore
	// update merges into them and copies the result back into the row, so
	// a warmed-up basis performs Add without allocating.
	mergeCols []int
	mergeVals []float64

	// factorsScratch/coeffsScratch back the per-operation elimination-factor
	// and member-coefficient vectors, so steady-state Add/Dependent calls in
	// support-tracking mode allocate nothing. They are only valid within a
	// single operation (the basis is single-writer by contract).
	factorsScratch []float64
	coeffsScratch  []float64

	// ws is the workspace the basis's own (mutating) operations reduce in;
	// read-only probes may substitute an external one via InSpanWith.
	ws *Workspace
}

// NewSparseBasis returns an empty sparse basis for vectors of the given
// dimension.
func NewSparseBasis(dim int) *SparseBasis { return NewSparseBasisTol(dim, DefaultTol) }

// NewSparseBasisRankOnly returns an empty sparse basis with support
// tracking disabled — for consumers that only need ranks and membership
// booleans (Monte Carlo scenario panels, basis-index selection).
func NewSparseBasisRankOnly(dim int) *SparseBasis {
	return newSparseBasis(dim, DefaultTol, true)
}

// NewSparseBasisTol is NewSparseBasis with an explicit zero tolerance.
func NewSparseBasisTol(dim int, tol float64) *SparseBasis {
	return newSparseBasis(dim, tol, false)
}

func newSparseBasis(dim int, tol float64, rankOnly bool) *SparseBasis {
	pv := make([]int, dim)
	for i := range pv {
		pv[i] = -1
	}
	b := &SparseBasis{
		dim:      dim,
		tol:      tol,
		rankOnly: rankOnly,
		pivotOf:  pv,
		colCnt:   make([]int32, dim),
		ws:       NewWorkspace(dim),
	}
	if !rankOnly {
		// The rank can never exceed dim, so sizing the per-operation factor
		// and coefficient scratch to dim up front removes the growth
		// reallocations Add would otherwise pay each time the member count
		// crossed the previous capacity. Rank-only bases never touch either
		// scratch, so they skip the 2·dim floats.
		b.factorsScratch = make([]float64, 0, dim)
		b.coeffsScratch = make([]float64, 0, dim)
	}
	return b
}

// Rank returns the number of accepted vectors.
func (b *SparseBasis) Rank() int { return len(b.rows) }

// Dim returns the vector dimension.
func (b *SparseBasis) Dim() int { return b.dim }

// Reset empties the basis for reuse, keeping its allocated workspace. Hot
// loops that rank many row subsets of the same dimension (Monte Carlo
// scenario panels) reset one basis instead of allocating per subset.
func (b *SparseBasis) Reset() {
	for _, p := range b.pivots {
		b.pivotOf[p] = -1
	}
	b.rows = b.rows[:0]
	b.pivots = b.pivots[:0]
	b.combos = b.combos[:0]
	b.unit = b.unit[:0]
	clear(b.colCnt)
}

// CopyFrom makes b a deep copy of src, which must have the same dimension,
// in b's own storage: rows, pivots, combos and the row summaries are copied
// into the slices b already holds, rows past b's rank donate their storage
// as Reset leaves them, and the row headers keep room for one more Add. A
// basis recycled as the copy target of many snapshots (Monte Carlo class
// splits) therefore settles into allocating nothing. b keeps its own
// workspace and scratch.
func (b *SparseBasis) CopyFrom(src *SparseBasis) {
	if b.dim != src.dim {
		panic("linalg: CopyFrom between sparse bases of different dimensions")
	}
	n := len(src.rows)
	b.tol, b.rankOnly = src.tol, src.rankOnly
	// slices.Grow extends a slice past its capacity by appending to
	// s[:cap(s)], so retired rows keep their storage.
	b.rows = slices.Grow(b.rows[:0], n+1)[:n]
	for i := range src.rows {
		r, s := &b.rows[i], &src.rows[i]
		r.cols, r.vals = rowStorage(r.cols, r.vals, len(s.cols))
		r.cols = append(r.cols, s.cols...)
		r.vals = append(r.vals, s.vals...)
	}
	b.combos = slices.Grow(b.combos[:0], len(src.combos))[:len(src.combos)]
	for i, c := range src.combos {
		b.combos[i] = append(b.combos[i][:0], c...)
	}
	b.pivots = append(b.pivots[:0], src.pivots...)
	b.unit = append(b.unit[:0], src.unit...)
	copy(b.pivotOf, src.pivotOf)
	copy(b.colCnt, src.colCnt)
}

// reduce eliminates pivot-column components of the workspace vector.
// Because rows satisfy the RREF invariant, each pivot column needs at most
// one elimination, and eliminating with a row never reintroduces another
// pivot column. Newly touched columns are processed as they appear. When
// factors is non-nil (length = number of rows) the elimination factor of
// each row is recorded there. A unit row is not read: its elimination
// would compute f − f·1 in its pivot column alone, which the final
// dense[col] = 0 overwrites anyway.
func (b *SparseBasis) reduce(ws *Workspace, factors []float64) {
	dense, mark := ws.dense, ws.mark
	for k := 0; k < len(ws.touched); k++ {
		col := ws.touched[k]
		row := b.pivotOf[col]
		if row < 0 {
			continue
		}
		f := dense[col]
		if nearZero(f, b.tol) {
			continue
		}
		if factors != nil {
			factors[row] = f
		}
		if !b.unit[row] {
			r := &b.rows[row]
			vals := r.vals
			for i, c := range r.cols {
				if !mark[c] {
					mark[c] = true
					ws.touched = append(ws.touched, c)
				}
				dense[c] -= f * vals[i]
			}
		}
		dense[col] = 0
	}
}

// reduceScratch runs reduce in the basis's own workspace, recording factors
// into the reusable factor scratch (valid until the next basis operation).
func (b *SparseBasis) reduceScratch() (factors []float64) {
	factors = b.factorBuf(len(b.rows))
	b.reduce(b.ws, factors)
	return factors
}

// factorBuf returns the factor scratch zeroed and resized to n.
func (b *SparseBasis) factorBuf(n int) []float64 {
	if cap(b.factorsScratch) < n {
		b.factorsScratch = make([]float64, n)
	}
	b.factorsScratch = b.factorsScratch[:n]
	clear(b.factorsScratch)
	return b.factorsScratch
}

// memberCoeffs expands elimination factors into coefficients over the
// accepted members, in the reusable coefficient scratch (valid until the
// next basis operation).
func (b *SparseBasis) memberCoeffs(factors []float64) []float64 {
	if cap(b.coeffsScratch) < len(b.rows) {
		b.coeffsScratch = make([]float64, len(b.rows))
	}
	coeffs := b.coeffsScratch[:len(b.rows)]
	clear(coeffs)
	for i, f := range factors {
		if f == 0 {
			continue
		}
		for k, c := range b.combos[i] {
			coeffs[k] += f * c
		}
	}
	return coeffs
}

// checkVec panics unless (cols, vals) fits the basis (sorted: ends only).
func (b *SparseBasis) checkVec(cols []int, vals []float64) {
	if len(cols) != len(vals) || len(cols) > 0 && (cols[0] < 0 || cols[len(cols)-1] >= b.dim) {
		panic("linalg: sparse vector does not fit the basis dimension")
	}
}

// Dependent reports whether (cols, vals) already lies in the span, without
// modifying the basis. If it does, support lists the member indices (in
// acceptance order) whose combination reproduces it, appended into
// scratch[:0]; it is empty for the zero vector and nil in rank-only mode.
// A scratch of capacity Dim() never grows, so such probes allocate nothing.
func (b *SparseBasis) Dependent(cols []int, vals []float64, scratch []int) (dependent bool, support []int) {
	if b.rankOnly {
		return b.InSpanWith(cols, vals, b.ws), nil
	}
	b.checkVec(cols, vals)
	b.ws.loadSparse(cols, vals)
	factors := b.reduceScratch()
	pivot := b.ws.residualPivot(b.tol)
	b.ws.clear()
	if pivot >= 0 {
		return false, nil
	}
	support = scratch[:0]
	for k, c := range b.memberCoeffs(factors) {
		if !nearZero(c, b.tol) {
			support = append(support, k)
		}
	}
	return true, support
}

// InSpanWith reports whether the sparse vector (cols, vals) lies in the row
// span, reducing in the caller-supplied workspace and allocating nothing.
// It performs exactly the eliminations Dependent performs (so the answer is
// bit-identical) but skips the factor and support bookkeeping. The basis
// itself is only read: concurrent InSpanWith calls on one shared basis are
// safe as long as each goroutine brings its own workspace and no mutation
// (Add, Reset) runs concurrently.
func (b *SparseBasis) InSpanWith(cols []int, vals []float64, ws *Workspace) bool {
	b.checkVec(cols, vals)
	ws.checkDim(b.dim)
	if len(b.rows) == 0 {
		// Empty basis spans only the zero vector; omitted columns are zero.
		for _, x := range vals {
			if !nearZero(x, b.tol) {
				return false
			}
		}
		return true
	}
	if len(b.rows) == b.dim {
		return true // full column rank spans everything
	}
	ws.loadSparse(cols, vals)
	b.reduce(ws, nil)
	pivot := ws.residualPivot(b.tol)
	ws.clear()
	return pivot < 0
}

// Representation returns the coefficients over accepted members that
// reproduce the sparse vector (cols, vals), when it lies in the span. Not
// available in rank-only mode.
func (b *SparseBasis) Representation(cols []int, vals []float64) (coeffs []float64, ok bool) {
	if b.rankOnly {
		panic("linalg: Representation called on a rank-only sparse basis")
	}
	b.checkVec(cols, vals)
	b.ws.loadSparse(cols, vals)
	factors := b.reduceScratch()
	pivot := b.ws.residualPivot(b.tol)
	b.ws.clear()
	if pivot >= 0 {
		return nil, false
	}
	// The coefficient scratch is reused by the next operation; hand the
	// caller its own copy.
	return append([]float64(nil), b.memberCoeffs(factors)...), true
}

// Add inserts the sparse vector (cols, vals) if it is independent of the
// basis: added reports true and member is its index. Otherwise added is
// false and support lists the members whose combination reproduces it (nil
// in rank-only mode).
func (b *SparseBasis) Add(cols []int, vals []float64) (added bool, member int, support []int) {
	b.checkVec(cols, vals)
	b.ws.loadSparse(cols, vals)
	return b.addLoaded()
}

// UnitRows returns the number of stored rows with a single entry: the
// number of unit vectors e_j in the span, at O(rank) cost. In the reduced
// form e_j can only be the row with pivot j (a combination's coefficient on
// row r is its value at r's pivot), and stored entries exceed tol, so the
// count equals the number of j for which Dependent(e_j) answers true.
func (b *SparseBasis) UnitRows() int {
	n := 0
	for i := range b.rows {
		if len(b.rows[i].cols) == 1 {
			n++
		}
	}
	return n
}

// addLoaded runs the Add body on the vector already scattered into b.ws.
func (b *SparseBasis) addLoaded() (added bool, member int, support []int) {
	var factors []float64
	if !b.rankOnly {
		factors = b.factorBuf(len(b.rows))
	}
	b.reduce(b.ws, factors)
	pivotCol := b.ws.residualPivot(b.tol)
	if pivotCol < 0 {
		b.ws.clear()
		if b.rankOnly {
			return false, -1, nil
		}
		for k, c := range b.memberCoeffs(factors) {
			if !nearZero(c, b.tol) {
				support = append(support, k)
			}
		}
		return false, -1, support
	}

	member = len(b.rows)
	var combo []float64
	if !b.rankOnly {
		// A retired combo left behind by Reset (beyond len, within cap)
		// donates its storage, mirroring the row-storage reuse below.
		if cap(b.combos) > member {
			combo = b.combos[:member+1][member]
		}
		if cap(combo) < member+1 {
			combo = make([]float64, member+1)
		} else {
			combo = combo[:member+1]
			clear(combo)
		}
		combo[member] = 1
		for i, f := range factors {
			if f == 0 {
				continue
			}
			for k, c := range b.combos[i] {
				combo[k] -= f * c
			}
		}
	}
	// Extract, normalize and sort the residual row. A retired row left
	// behind by Reset or CopyFrom (beyond len, within cap) donates its
	// storage, so panel-style reuse (Reset + re-Add) settles into zero
	// allocations. The storage must hold the residual's nonzeros, which
	// bound the row's entries; the touched columns also count the pivot
	// columns reduce zeroed.
	pv := b.ws.dense[pivotCol]
	var newRow sparseRow
	if cap(b.rows) > member {
		newRow = b.rows[:member+1][member]
	}
	nnz := 0
	for _, j := range b.ws.touched {
		if b.ws.dense[j] != 0 {
			nnz++
		}
	}
	newRow.cols, newRow.vals = rowStorage(newRow.cols, newRow.vals, nnz)
	for _, j := range b.ws.touched {
		// touched is unsorted; gather then sort once below.
		x := b.ws.dense[j] / pv
		if j == pivotCol {
			x = 1
		}
		if nearZero(x, b.tol) {
			continue
		}
		newRow.cols = append(newRow.cols, j)
		newRow.vals = append(newRow.vals, x)
	}
	b.ws.clear()
	sortSparse(&newRow)
	for k := range combo {
		combo[k] /= pv
	}

	// Restore the RREF invariant: clear pivotCol from existing rows. Only
	// the colCnt[pivotCol] rows holding it change, so the scan stops at the
	// last of them (the rank bound only guards against a miscount).
	for i, holders := 0, b.colCnt[pivotCol]; holders > 0 && i < len(b.rows); i++ {
		r := &b.rows[i]
		f := r.at(pivotCol)
		if nearZero(f, b.tol) {
			continue
		}
		holders--
		b.axpy(r, -f, &newRow)
		b.unit[i] = r.isUnit(b.pivots[i])
		if b.rankOnly {
			continue
		}
		// combos[i] -= f·combo.
		ci := b.combos[i]
		for len(ci) < member+1 {
			ci = append(ci, 0)
		}
		for k, c := range combo {
			ci[k] -= f * c
		}
		b.combos[i] = ci
	}

	for _, c := range newRow.cols {
		b.colCnt[c]++
	}
	b.rows = append(b.rows, newRow)
	b.pivots = append(b.pivots, pivotCol)
	b.unit = append(b.unit, newRow.isUnit(pivotCol))
	b.pivotOf[pivotCol] = member
	if !b.rankOnly {
		b.combos = append(b.combos, combo)
	}
	return true, member, nil
}

// at returns the value at column c (0 when absent) via binary search.
func (r *sparseRow) at(c int) float64 {
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.cols) && r.cols[lo] == c {
		return r.vals[lo]
	}
	return 0
}

// minRowCap is the least capacity row storage is allocated with. Reduced
// rows mostly hold one or two entries, and a row's storage passes to other
// rows (CopyFrom writes row i into whatever buffer slot i holds, and a
// retired row's buffer takes the next new row), so a common floor lets
// almost any buffer serve almost any row.
const minRowCap = 4

// rowStorage returns cols and vals emptied, or new storage when they cannot
// hold n entries. A row's two slices always share one capacity.
func rowStorage(cols []int, vals []float64, n int) ([]int, []float64) {
	if cap(cols) < n {
		n = max(n, minRowCap)
		return make([]int, 0, n), make([]float64, 0, n)
	}
	return cols[:0], vals[:0]
}

// isUnit reports whether the row's only entry sits in column pivot.
func (r *sparseRow) isUnit(pivot int) bool { return len(r.cols) == 1 && r.cols[0] == pivot }

// axpy performs r += f·other on a stored row with merge semantics, dropping
// entries within tol of zero and keeping colCnt in step: one more holder
// per kept fill-in, one fewer per cancelled entry. The merge lands in the
// basis's merge scratch and is copied back into the row, so a warm basis
// allocates here only when a row outgrows its storage.
func (b *SparseBasis) axpy(r *sparseRow, f float64, other *sparseRow) {
	tol := b.tol
	cols, vals := rowStorage(b.mergeCols, b.mergeVals, len(r.cols)+other.nnz())
	i, j := 0, 0
	for i < len(r.cols) || j < len(other.cols) {
		switch {
		case j >= len(other.cols) || (i < len(r.cols) && r.cols[i] < other.cols[j]):
			cols = append(cols, r.cols[i])
			vals = append(vals, r.vals[i])
			i++
		case i >= len(r.cols) || other.cols[j] < r.cols[i]:
			x := f * other.vals[j]
			if !nearZero(x, tol) {
				cols = append(cols, other.cols[j])
				vals = append(vals, x)
				b.colCnt[other.cols[j]]++
			}
			j++
		default:
			x := r.vals[i] + f*other.vals[j]
			if !nearZero(x, tol) {
				cols = append(cols, r.cols[i])
				vals = append(vals, x)
			} else {
				b.colCnt[r.cols[i]]--
			}
			i++
			j++
		}
	}
	// Copy the merge back into the row's own storage, so the scratch keeps
	// its capacity and the row its buffer.
	b.mergeCols, b.mergeVals = cols, vals
	r.cols, r.vals = rowStorage(r.cols, r.vals, len(cols))
	r.cols = append(r.cols, cols...)
	r.vals = append(r.vals, vals...)
}

func sortSparse(r *sparseRow) {
	// Insertion sort on (cols, vals) pairs; rows are short.
	for i := 1; i < len(r.cols); i++ {
		for j := i; j > 0 && r.cols[j] < r.cols[j-1]; j-- {
			r.cols[j], r.cols[j-1] = r.cols[j-1], r.cols[j]
			r.vals[j], r.vals[j-1] = r.vals[j-1], r.vals[j]
		}
	}
}
