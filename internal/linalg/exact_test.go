package linalg

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// sparseRank is the rank a support-tracking SparseBasis reaches on the rows
// of m, added in order.
func sparseRank(m *Matrix) int {
	b := NewSparseBasis(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		b.Add(sparse(m.Row(i)))
	}
	return b.Rank()
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols(), m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func TestRankKnownMatrices(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
		want int
	}{
		{"empty", nil, 0},
		{"zero", [][]float64{{0, 0}, {0, 0}}, 0},
		{"identity3", [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, 3},
		{"duplicated row", [][]float64{{1, 1}, {1, 1}}, 1},
		{"sum row", [][]float64{{1, 0}, {0, 1}, {1, 1}}, 2},
		{"wide", [][]float64{{1, 2, 3, 4}}, 1},
		{"tall dependent", [][]float64{{1}, {2}, {3}}, 1},
		{
			"paper-like 4x4",
			[][]float64{
				{1, 1, 0, 0},
				{0, 1, 1, 0},
				{0, 0, 1, 1},
				{1, 0, 0, 1}, // = r1 - r2 + r3
			},
			3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := FromRows(tc.rows)
			if err != nil {
				t.Fatal(err)
			}
			if got := sparseRank(m); got != tc.want {
				t.Errorf("SparseBasis rank = %d, want %d", got, tc.want)
			}
			if got := RankExact(m); got != tc.want {
				t.Errorf("RankExact = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestRankDoesNotMutate(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	RankExact(m)
	sparseRank(m)
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(1, 0) != 3 || m.At(1, 1) != 4 {
		t.Fatalf("rank mutated its input:\n%v", m)
	}
}

// Property: the sparse basis rank matches exact rational rank on random
// 0/1 matrices.
func TestRankMatchesExactRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		rows := 1 + rng.IntN(12)
		cols := 1 + rng.IntN(12)
		m := randomBinaryMatrix(rng, rows, cols, 0.4)
		return sparseRank(m) == RankExact(m)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank is invariant under transposition and bounded by min shape.
func TestRankProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		rows := 1 + rng.IntN(10)
		cols := 1 + rng.IntN(10)
		m := randomBinaryMatrix(rng, rows, cols, 0.5)
		r := sparseRank(m)
		if r > rows || r > cols {
			return false
		}
		return sparseRank(transpose(m)) == r && RankExact(transpose(m)) == r
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank is subadditive under row stacking: rank([A;B]) ≤ rank(A)+rank(B)
// and ≥ max(rank(A), rank(B)).
func TestRankSubadditive(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 29))
		cols := 1 + rng.IntN(8)
		ra := 1 + rng.IntN(6)
		rb := 1 + rng.IntN(6)
		a := randomBinaryMatrix(rng, ra, cols, 0.5)
		b := randomBinaryMatrix(rng, rb, cols, 0.5)
		stacked := NewMatrix(ra+rb, cols)
		for i := 0; i < ra; i++ {
			copy(stacked.Row(i), a.Row(i))
		}
		for i := 0; i < rb; i++ {
			copy(stacked.Row(ra+i), b.Row(i))
		}
		rs, raa, rbb := sparseRank(stacked), sparseRank(a), sparseRank(b)
		return rs <= raa+rbb && rs >= raa && rs >= rbb
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The basis keeps its rows in reduced row echelon form: each pivot is 1,
// every other row is 0 in that column, and a dependent row stores nothing.
func TestRREFBasics(t *testing.T) {
	b := NewSparseBasis(3)
	for _, v := range [][]float64{{1, 1, 0}, {0, 1, 1}, {1, 2, 1}} {
		b.Add(sparse(v))
	}
	want := [][]float64{{1, 0, -1}, {0, 1, 1}}
	if b.Rank() != len(want) {
		t.Fatalf("rank %d, want %d", b.Rank(), len(want))
	}
	for r := range want {
		got := make([]float64, 3)
		for k, c := range b.rows[r].cols {
			got[c] = b.rows[r].vals[k]
		}
		if !slices.Equal(got, want[r]) {
			t.Errorf("row %d = %v, want %v", r, got, want[r])
		}
	}
}

func TestInRowSpace(t *testing.T) {
	b := NewSparseBasis(3)
	b.Add(sparse([]float64{1, 1, 0}))
	b.Add(sparse([]float64{0, 1, 1}))
	ws := NewWorkspace(3)
	cases := []struct {
		v    []float64
		want bool
	}{
		{[]float64{1, 1, 0}, true},
		{[]float64{0, 1, 1}, true},
		{[]float64{1, 2, 1}, true},  // sum
		{[]float64{1, 0, -1}, true}, // difference
		{[]float64{0, 0, 0}, true},
		{[]float64{1, 0, 0}, false},
		{[]float64{0, 0, 1}, false},
	}
	for _, tc := range cases {
		cols, vals := sparse(tc.v)
		if got := b.InSpanWith(cols, vals, ws); got != tc.want {
			t.Errorf("InSpanWith(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// Property: every row lies in the span of the basis built from all rows,
// and the basis rank equals the exact rank.
func TestRREFConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		rows := 1 + rng.IntN(10)
		cols := 1 + rng.IntN(10)
		m := randomBinaryMatrix(rng, rows, cols, 0.45)
		b := NewSparseBasis(cols)
		for i := 0; i < rows; i++ {
			b.Add(sparse(m.Row(i)))
		}
		if b.Rank() != RankExact(m) {
			return false
		}
		ws := NewWorkspace(cols)
		for i := 0; i < rows; i++ {
			if cols, vals := sparse(m.Row(i)); !b.InSpanWith(cols, vals, ws) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
