package linalg

import "fmt"

// Workspace is the dense scratch state a sparse-basis reduction works in: a
// scatter vector plus the deduplicated list of touched columns that bounds
// re-zeroing to the work actually done. Every SparseBasis owns one for its
// mutating operations; read-only probes (InSpanWith) can instead bring
// their own, which lets any number of goroutines probe a shared basis
// concurrently without allocating per call.
type Workspace struct {
	dense   []float64
	touched []int
	mark    []bool
}

// NewWorkspace returns a workspace for vectors of the given dimension.
func NewWorkspace(dim int) *Workspace {
	return &Workspace{
		dense: make([]float64, dim),
		mark:  make([]bool, dim),
	}
}

// Dim returns the workspace's vector dimension.
func (ws *Workspace) Dim() int { return len(ws.dense) }

func (ws *Workspace) touch(j int) {
	if !ws.mark[j] {
		ws.mark[j] = true
		ws.touched = append(ws.touched, j)
	}
}

// loadSparse scatters a sparse vector (parallel cols/vals sorted by column)
// into the dense vector, tracking touched columns. Columns are touched in
// ascending order, the order a scan of the equivalent dense vector would
// visit them, so a reduction's elimination sequence depends only on the
// vector's values.
func (ws *Workspace) loadSparse(cols []int, vals []float64) {
	for i, j := range cols {
		if x := vals[i]; x != 0 {
			ws.dense[j] = x
			ws.touch(j)
		}
	}
}

// clear re-zeroes the touched entries, restoring the workspace for reuse.
func (ws *Workspace) clear() {
	for _, j := range ws.touched {
		ws.dense[j] = 0
		ws.mark[j] = false
	}
	ws.touched = ws.touched[:0]
}

// residualPivot returns the first touched column with a surviving nonzero,
// or -1 when the reduced vector vanished.
func (ws *Workspace) residualPivot(tol float64) int {
	best := -1
	for _, j := range ws.touched {
		if nearZero(ws.dense[j], tol) {
			continue
		}
		if best < 0 || j < best {
			best = j
		}
	}
	return best
}

func (ws *Workspace) checkDim(dim int) {
	if len(ws.dense) != dim {
		panic(fmt.Sprintf("linalg: workspace dim %d, want %d", len(ws.dense), dim))
	}
}
