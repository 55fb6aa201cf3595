package linalg

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func randomBinaryMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				m.Set(i, j, 1)
			}
		}
	}
	return m
}

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative shape should panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	m, err := FromRows(nil)
	if err != nil || m.Rows() != 0 {
		t.Fatalf("empty FromRows: %v %v", m, err)
	}
}

func TestSetAtRow(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 5)
	if m.At(1, 0) != 5 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[1] = 7
	if m.At(1, 1) != 7 {
		t.Fatal("Row is not a live view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestSelectRows(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 0}, {0, 1}, {1, 1}})
	s := m.SelectRows([]int{2, 0, 2})
	if s.Rows() != 3 || s.At(0, 1) != 1 || s.At(1, 0) != 1 || s.At(1, 1) != 0 {
		t.Fatalf("SelectRows wrong: %v", s)
	}
}

func TestTranspose(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong:\n%v", tr)
	}
}

func TestMulVec(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 0, 2}, {0, 3, 0}})
	y := m.MulVec([]float64{1, 2, 3})
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MulVec = %v", y)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	m.MulVec([]float64{1})
}

func TestStringForms(t *testing.T) {
	small := mustFromRows(t, [][]float64{{1, 2}})
	if !strings.Contains(small.String(), "1 2") {
		t.Errorf("small String = %q", small.String())
	}
	big := NewMatrix(50, 50)
	if !strings.Contains(big.String(), "matrix(50x50)") {
		t.Errorf("big String = %q", big.String())
	}
}
