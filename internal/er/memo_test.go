package er

import (
	"math/rand/v2"
	"testing"

	"robusttomo/internal/failure"
	"robusttomo/internal/linalg"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// memoSchedule runs the naive greedy schedule on a fresh oracle (Gain every
// path, Add the best, until no path gains) and, after every call,
// re-probes every set span-memo bit against the current basis of its
// class. It skips only re-probes whose answer it already holds: a Gain
// sets bits of the path it probes alone and changes no basis, and an Add
// changes the basis of a class exactly when its rank grows or the class is
// new. Before every Add it also checks that the row is outside the basis
// of every class it splits (partial survival), which is what lets Add
// skip a memoized class before counting its survivors. It returns the
// number of Gain calls and of memo bits re-probed.
func memoSchedule(t *testing.T, pm *tomo.PathMatrix, model failure.Sampler, runs int, seed uint64) (gains, checked int) {
	t.Helper()
	mc := NewMonteCarloInc(pm, model, runs, rand.New(rand.NewPCG(seed, 0x3E)))
	ws := linalg.NewWorkspace(pm.NumLinks())
	reprobe := func(c, q int) {
		if mw, bit := mc.memoBit(q); mc.classes[c][mw]&bit == 0 {
			return
		}
		checked++
		if cols, vals := pm.SparseRow(q); !mc.bases[c].InSpanWith(cols, vals, ws) {
			t.Fatalf("class %d memoizes path %d as in span, but its basis (rank %d) no longer spans the row",
				c, q, mc.bases[c].Rank())
		}
	}
	var ranks []int
	for {
		best, bestGain := -1, 0.0
		for q := 0; q < pm.NumPaths(); q++ {
			g := mc.Gain(q)
			gains++
			for c := range mc.classes {
				reprobe(c, q)
			}
			if g > bestGain {
				best, bestGain = q, g
			}
		}
		if best < 0 {
			return gains, checked
		}
		ranks = ranks[:0]
		cols, vals := pm.SparseRow(best)
		for c, b := range mc.bases {
			ranks = append(ranks, b.Rank())
			cnt := andCount(mc.masks[best], mc.classes[c])
			if cnt > 0 && cnt < int(mc.classBits[c]) && b.InSpanWith(cols, vals, ws) {
				t.Fatalf("path %d splits class %d (%d of %d scenarios survive) but lies in its basis's span",
					best, c, cnt, mc.classBits[c])
			}
		}
		mc.Add(best)
		for c, b := range mc.bases {
			if c < len(ranks) && b.Rank() == ranks[c] {
				continue
			}
			for q := 0; q < pm.NumPaths(); q++ {
				reprobe(c, q)
			}
		}
	}
}

// The span memo lets Gain and Add skip a rank probe whose (path, class)
// pair a probe of the class lineage already answered "in span". That is
// exact in real arithmetic, because a class basis only grows. In floats a
// later basis could in principle reduce the row to a residual above the
// 1e-9 zero tolerance and flip the answer. This differential re-probes
// every memoized pair against the current basis after every call, on
// small random instances (panels and memos straddling word boundaries) and
// on AS1755 subgraphs at the benchmark's 400 paths and 1000 scenarios.
func TestMonteCarloIncSpanMemoSound(t *testing.T) {
	rng := stats.NewRNG(0x5EED, 16)
	for trial := 0; trial < 12; trial++ {
		pm, model := randomInstance(rng, 6+rng.IntN(10), 20+rng.IntN(120))
		if _, checked := memoSchedule(t, pm, model, 40+rng.IntN(100), uint64(trial)); checked == 0 {
			t.Fatalf("trial %d: the memo never held a bit", trial)
		}
	}
	for _, seed := range []uint64{1, 2} {
		pm, model := rocketfuelInstance(t, 400, seed)
		gains, checked := memoSchedule(t, pm, model, 1000, seed)
		if checked == 0 {
			t.Fatalf("AS1755 seed %d: the memo never held a bit", seed)
		}
		t.Logf("AS1755 seed %d: %d paths, %d Gains, %d memo bits re-probed", seed, pm.NumPaths(), gains, checked)
	}
}
