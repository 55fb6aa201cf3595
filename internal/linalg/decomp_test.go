package linalg

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPivotedCholeskyRowsSelectsBasis(t *testing.T) {
	m := mustFromRows(t, [][]float64{
		{1, 1, 0, 0},
		{0, 1, 1, 0},
		{1, 2, 1, 0}, // dependent on rows 0,1
		{0, 0, 0, 1},
	})
	sel := PivotedCholeskyRows(m, 1e-7)
	if len(sel) != 3 {
		t.Fatalf("selected %v, want 3 rows", sel)
	}
	sub := m.SelectRows(sel)
	if Rank(sub) != 3 {
		t.Fatalf("selected rows have rank %d, want 3", Rank(sub))
	}
	// The largest-norm row (row 2) is the first pivot even though it is a
	// combination of rows 0 and 1 — any maximal independent set is valid.
	if sel[0] != 2 {
		t.Errorf("first pivot = %d, want the max-norm row 2", sel[0])
	}
}

func TestPivotedCholeskyEmpty(t *testing.T) {
	if sel := PivotedCholeskyRows(NewMatrix(0, 5), 1e-7); sel != nil {
		t.Fatalf("empty matrix selected %v", sel)
	}
	if sel := PivotedCholeskyRows(NewMatrix(3, 0), 1e-7); sel != nil {
		t.Fatalf("zero-col matrix selected %v", sel)
	}
	zero := NewMatrix(3, 3)
	if sel := PivotedCholeskyRows(zero, 1e-7); len(sel) != 0 {
		t.Fatalf("zero matrix selected %v", sel)
	}
}

// Property: pivoted Cholesky selects exactly rank(m) rows and they are
// linearly independent, on random 0/1 matrices.
func TestPivotedCholeskyRank(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		rows := 1 + rng.IntN(14)
		cols := 1 + rng.IntN(10)
		m := randomBinaryMatrix(rng, rows, cols, 0.4)
		sel := PivotedCholeskyRows(m, 1e-7)
		if len(sel) != Rank(m) {
			return false
		}
		if len(sel) == 0 {
			return true
		}
		return Rank(m.SelectRows(sel)) == len(sel)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRankExactLargeValues(t *testing.T) {
	// Values that would challenge naive float comparisons.
	m := mustFromRows(t, [][]float64{
		{1e10, 1},
		{1e10, 1.0000001},
	})
	if got := RankExact(m); got != 2 {
		t.Fatalf("RankExact = %d, want 2", got)
	}
}
