// Package linalg implements the linear algebra needed for network
// tomography path matrices: SparseBasis — the one float64 elimination, an
// incremental row basis that tracks dependency coefficients for the
// paper's probabilistic ER bound and for solving link metrics, and runs
// rank-only for the Monte Carlo oracles and MatRoMe — pivoted Cholesky row
// selection on a dense Matrix (the SelectPath baseline's basis
// extraction), and an exact big.Rat rank (RankExact) that the
// floating-point code is tested against.
//
// Path matrices are 0/1 and modest in size (thousands of rows, around a
// thousand columns), so float64 arithmetic with a fixed absolute tolerance
// is both simple and robust. DefaultTol is the tolerance used across the
// repository.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// DefaultTol is the absolute tolerance below which a value is treated as
// zero during elimination. Path-matrix entries are 0/1 and eliminations
// involve small coefficients, so 1e-9 leaves many orders of magnitude of
// headroom.
const DefaultTol = 1e-9

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// negative dimensions, which is a programming error.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// SelectRows returns a new matrix consisting of the given rows of m, in the
// given order. Row indices may repeat.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// String renders small matrices for debugging; large matrices are
// summarized by shape.
func (m *Matrix) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("matrix(%dx%d)", m.rows, m.cols)
	}
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%g", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// nearZero reports whether v is within tol of zero.
func nearZero(v, tol float64) bool { return math.Abs(v) <= tol }
