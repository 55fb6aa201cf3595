package linalg

import (
	"math/rand/v2"
	"slices"
	"testing"

	"robusttomo/internal/routing"
	"robusttomo/internal/topo"
)

// fuzzSeedMatrix serializes (dim, rows) into the fuzz input format: one dim
// byte, then ceil(dim/8) bytes per row.
func fuzzSeedMatrix(dim int, rows [][]int) []byte {
	bytesPerRow := (dim + 7) / 8
	data := []byte{byte(dim - 1)}
	for _, cols := range rows {
		rb := make([]byte, bytesPerRow)
		for _, c := range cols {
			rb[c/8] |= 1 << (c % 8)
		}
		data = append(data, rb...)
	}
	return data
}

// fuzzMatrix decodes a fuzz input into a 0/1 matrix of at most 96 columns
// and 48 rows, or nil when the input holds no whole row.
func fuzzMatrix(data []byte) *Matrix {
	if len(data) == 0 {
		return nil
	}
	dim := 1 + int(data[0])%96
	bytesPerRow := (dim + 7) / 8
	body := data[1:]
	nRows := min(len(body)/bytesPerRow, 48)
	if nRows == 0 {
		return nil
	}
	m := NewMatrix(nRows, dim)
	for r := 0; r < nRows; r++ {
		chunk := body[r*bytesPerRow : (r+1)*bytesPerRow]
		for j := 0; j < dim; j++ {
			if chunk[j/8]&(1<<(j%8)) != 0 {
				m.Set(r, j, 1)
			}
		}
	}
	return m
}

// yenSeedRows returns the link sets of Yen k-shortest path families between
// monitors on a small generated ISP topology: several near-shortest routes
// per pair share most of their links, the structure where elimination
// cancellation is likeliest.
func yenSeedRows(f *testing.F, monitors, k int, disjoint bool) (dim int, rows [][]int) {
	tp, err := topo.Generate(topo.Config{Name: "fuzz", Nodes: 30, Links: 60, PoPs: 3, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	sources := tp.Access[:monitors]
	dests := sources
	if disjoint {
		dests = tp.Access[monitors : 2*monitors]
	}
	paths, err := routing.MonitorPairsK(tp.Graph, sources, dests, k)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths[:min(len(paths), 48)] {
		cols := make([]int, len(p.Edges))
		for i, e := range p.Edges {
			cols[i] = int(e)
		}
		rows = append(rows, cols)
	}
	return tp.Graph.NumEdges(), rows
}

// checkSummaries fails unless b's unit flags and column counts match a
// recount of its stored rows.
func checkSummaries(t *testing.T, b *SparseBasis) {
	t.Helper()
	if len(b.unit) != len(b.rows) {
		t.Fatalf("%d unit flags for %d rows", len(b.unit), len(b.rows))
	}
	cnt := make([]int32, b.dim)
	for i := range b.rows {
		r := &b.rows[i]
		for _, c := range r.cols {
			cnt[c]++
		}
		if want := len(r.cols) == 1 && r.cols[0] == b.pivots[i]; b.unit[i] != want {
			t.Fatalf("row %d (pivot %d, cols %v): unit flag %v, want %v", i, b.pivots[i], r.cols, b.unit[i], want)
		}
	}
	if !slices.Equal(cnt, b.colCnt) {
		t.Fatalf("colCnt %v, recount %v", b.colCnt, cnt)
	}
}

// FuzzSparseVsExactRank drives random 0/1 matrices through SparseBasis, in
// both support-tracking and rank-only mode, against the exact big.Rat rank.
// Invariants: every Add accepts its row exactly when the exact rank of the
// row prefix rises, the final rank equals RankExact of the matrix, and the
// final basis holds one single-entry row per column j whose unit vector
// e_j lies in the exact row space (RankExact unchanged by appending e_j),
// the identifiability count RankAndIdentifiable reads off UnitRows. Before
// every row, each basis is also copied with CopyFrom into a recycled target
// of the other mode that last held other rows (the matrix's rows in reverse
// at first, then the previous copy plus one row); the copy must accept the
// row exactly when its source does. After every Add, the unit flags and
// column counts of every basis and copy match a recount of its rows.
//
// The seed corpus holds the monitor-star triangle and the four-path hub
// instance (rows that cancel mod 2 but are rationally independent), random
// matrices, and Yen k-shortest path families on a small ISP topology.
func FuzzSparseVsExactRank(f *testing.F) {
	// Triangle: three paths pairwise connecting three monitors, rank 3.
	f.Add(fuzzSeedMatrix(3, [][]int{{0, 1}, {1, 2}, {0, 2}}))
	// Monitor-pair instance (4 paths over 4 links) whose fourth path is
	// the sum mod 2 of the first three, yet rationally independent: rank 4.
	f.Add(fuzzSeedMatrix(4, [][]int{{0, 1}, {1, 2}, {0, 2, 3}, {3}}))
	f.Add(fuzzSeedMatrix(1, [][]int{{0}, {0}}))
	rng := rand.New(rand.NewPCG(99, 1))
	for trial := 0; trial < 8; trial++ {
		dim := 1 + rng.IntN(96)
		var rows [][]int
		for r := 0; r < 1+rng.IntN(24); r++ {
			var cols []int
			for c := 0; c < dim; c++ {
				if rng.Float64() < 0.15 {
					cols = append(cols, c)
				}
			}
			rows = append(rows, cols)
		}
		f.Add(fuzzSeedMatrix(dim, rows))
	}
	f.Add(fuzzSeedMatrix(yenSeedRows(f, 4, 4, false)))
	f.Add(fuzzSeedMatrix(yenSeedRows(f, 3, 3, true)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzMatrix(data)
		if m == nil {
			return
		}
		bases := []*SparseBasis{NewSparseBasis(m.Cols()), NewSparseBasisRankOnly(m.Cols())}
		copies := []*SparseBasis{NewSparseBasisRankOnly(m.Cols()), NewSparseBasis(m.Cols())}
		for _, c := range copies {
			for r := m.Rows() - 1; r >= 0; r-- {
				c.Add(sparse(m.Row(r)))
			}
		}
		prefix := make([]int, 0, m.Rows())
		exact := 0
		for r := 0; r < m.Rows(); r++ {
			prefix = append(prefix, r)
			next := RankExact(m.SelectRows(prefix))
			for k, b := range bases {
				c := copies[k]
				c.CopyFrom(b)
				added, _, _ := b.Add(sparse(m.Row(r)))
				if added != (next > exact) {
					t.Fatalf("row %d: Add accepted=%v, exact prefix rank %d -> %d", r, added, exact, next)
				}
				if copied, _, _ := c.Add(sparse(m.Row(r))); copied != added {
					t.Fatalf("row %d: copy accepted=%v, its source %v", r, copied, added)
				}
				checkSummaries(t, b)
				checkSummaries(t, c)
			}
			exact = next
		}
		want := RankExact(m)
		for _, b := range bases {
			if b.Rank() != want {
				t.Fatalf("final rank %d, RankExact %d", b.Rank(), want)
			}
		}
		withUnit := NewMatrix(m.Rows()+1, m.Cols())
		for r := 0; r < m.Rows(); r++ {
			copy(withUnit.Row(r), m.Row(r))
		}
		identifiable := 0
		for j := 0; j < m.Cols(); j++ {
			withUnit.Set(m.Rows(), j, 1)
			if RankExact(withUnit) == want {
				identifiable++
			}
			withUnit.Set(m.Rows(), j, 0)
		}
		for _, b := range bases {
			if b.UnitRows() != identifiable {
				t.Fatalf("%d single-entry rows, %d columns with e_j in the exact row space", b.UnitRows(), identifiable)
			}
		}
	})
}
