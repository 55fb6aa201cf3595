package linalg

import (
	"math/rand/v2"
	"testing"
)

func benchMatrix(rows, cols int) *Matrix {
	rng := rand.New(rand.NewPCG(1, 2))
	return randomBinaryMatrix(rng, rows, cols, 0.1)
}

func BenchmarkRankSmall(b *testing.B) {
	m := benchMatrix(100, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Rank(m) == 0 {
			b.Fatal("zero rank")
		}
	}
}

func BenchmarkRankLarge(b *testing.B) {
	m := benchMatrix(800, 972)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Rank(m) == 0 {
			b.Fatal("zero rank")
		}
	}
}

func BenchmarkRREF(b *testing.B) {
	m := benchMatrix(200, 328)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, pivots := RREF(m, DefaultTol)
		if red == nil || len(pivots) == 0 {
			b.Fatal("degenerate RREF")
		}
	}
}

func BenchmarkPivotedCholesky(b *testing.B) {
	m := benchMatrix(200, 328)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sel := PivotedCholeskyRows(m, 1e-7); len(sel) == 0 {
			b.Fatal("no rows selected")
		}
	}
}

func BenchmarkRankExact(b *testing.B) {
	m := benchMatrix(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankExact(m)
	}
}
