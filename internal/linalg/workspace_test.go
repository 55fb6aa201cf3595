package linalg

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// InSpanWith must agree with Dependent's boolean on random 0/1 matrices at
// every prefix of an Add sequence, and probing must leave the basis state
// untouched (the subsequent Adds behave as if no probe happened).
func TestInSpanWithMatchesDependent(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 303))
		rows := 1 + rng.IntN(20)
		cols := 1 + rng.IntN(15)
		m := randomBinaryMatrix(rng, rows, cols, 0.2+rng.Float64()*0.5)
		probed := NewSparseBasis(cols)
		reference := NewSparseBasis(cols)
		ws := NewWorkspace(cols)
		for i := 0; i < rows; i++ {
			// Probe several vectors (rows and random ones) between Adds.
			for trial := 0; trial < 4; trial++ {
				v := make([]float64, cols)
				if trial%2 == 0 {
					copy(v, m.Row(rng.IntN(rows)))
				} else {
					for j := range v {
						if rng.Float64() < 0.3 {
							v[j] = 1
						}
					}
				}
				dep, _ := dependent(reference, v)
				if cols, vals := sparse(v); probed.InSpanWith(cols, vals, ws) != dep {
					return false
				}
			}
			pa, pm2, _ := probed.Add(sparse(m.Row(i)))
			ra, rm2, _ := reference.Add(sparse(m.Row(i)))
			if pa != ra || pm2 != rm2 {
				return false // probing perturbed the basis
			}
		}
		return probed.Rank() == reference.Rank()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent probes against one shared basis, each with a private
// workspace, must all give the serial answer (run under -race in CI).
func TestInSpanWithConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	cols := 12
	m := randomBinaryMatrix(rng, 30, cols, 0.3)
	basis := NewSparseBasis(cols)
	for i := 0; i < 8; i++ {
		basis.Add(sparse(m.Row(i)))
	}
	want := make([]bool, 30)
	ws := NewWorkspace(cols)
	for i := range want {
		cols, vals := sparse(m.Row(i))
		want[i] = basis.InSpanWith(cols, vals, ws)
	}
	var wg sync.WaitGroup
	errs := make([]bool, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := NewWorkspace(cols)
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < 30; i++ {
					if cols, vals := sparse(m.Row(i)); basis.InSpanWith(cols, vals, own) != want[i] {
						errs[w] = true
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, bad := range errs {
		if bad {
			t.Fatalf("worker %d saw a probe disagree with the serial answer", w)
		}
	}
}

func TestSparseBasisReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	m := randomBinaryMatrix(rng, 15, 10, 0.3)
	reused := NewSparseBasis(10)
	for round := 0; round < 3; round++ {
		reused.Reset()
		fresh := NewSparseBasis(10)
		for i := 0; i < 15; i++ {
			ra, rm, _ := reused.Add(sparse(m.Row(i)))
			fa, fm, _ := fresh.Add(sparse(m.Row(i)))
			if ra != fa || rm != fm {
				t.Fatalf("round %d row %d: reused basis diverged from fresh", round, i)
			}
		}
		if reused.Rank() != fresh.Rank() {
			t.Fatalf("round %d: rank %d vs fresh %d", round, reused.Rank(), fresh.Rank())
		}
	}
}

func TestWorkspaceDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	b := NewSparseBasis(4)
	b.Add(sparse([]float64{1, 0, 0, 0}))
	cols, vals := sparse([]float64{1, 0, 0, 0})
	b.InSpanWith(cols, vals, NewWorkspace(3))
}
