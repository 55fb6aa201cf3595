package er

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"robusttomo/internal/failure"
	"robusttomo/internal/linalg"
	"robusttomo/internal/tomo"
)

// mcWorker is the per-worker elimination state of the batch MonteCarlo
// estimator, recycled across calls through mcWorkerPool: a warmed basis and
// survivor scratch sized for one link count.
type mcWorker struct {
	basis *linalg.SparseBasis
	surv  []int
}

var mcWorkerPool sync.Pool

// acquireMCWorker returns a pooled worker state for the given link count,
// or builds a fresh one.
func acquireMCWorker(links int) *mcWorker {
	if w, ok := mcWorkerPool.Get().(*mcWorker); ok && w.basis.Dim() == links {
		return w
	}
	return &mcWorker{basis: linalg.NewSparseBasisRankOnly(links)}
}

// MonteCarlo estimates ER(R) as the average rank of the surviving rows over
// n freshly sampled failure scenarios. Scenarios are drawn up front on the
// caller's goroutine (so the result is deterministic in rng) and packed
// into a bit-column ScenarioSet; per-scenario survivor filtering is then a
// bit test against each path's survival mask instead of a per-edge walk.
// Ranks are evaluated in parallel via chunked atomic-counter dispatch —
// workers claim fixed index ranges, so there is no per-scenario channel
// send and the per-scenario ranks land in fixed slots regardless of
// scheduling. Per-worker bases and scratch are recycled across calls
// through a sync.Pool.
func MonteCarlo(pm *tomo.PathMatrix, model failure.Sampler, idx []int, n int, rng *rand.Rand) float64 {
	if len(idx) == 0 || n <= 0 {
		return 0
	}
	set, err := failure.SampleScenarioSet(model, rng, n)
	if err != nil {
		panic("er: " + err.Error()) // only reachable with a zero-link sampler
	}
	words := set.Words()
	maskSlab := make([]uint64, len(idx)*words)
	masks := make([][]uint64, len(idx))
	rowCols := make([][]int, len(idx))
	rowVals := make([][]float64, len(idx))
	for k, i := range idx {
		masks[k] = pm.SurvivalMask(set, i, maskSlab[k*words:(k+1)*words:(k+1)*words])
		rowCols[k], rowVals[k] = sparsifyRow(pm.Row(i))
	}

	ranks := make([]int, n)
	links := pm.NumLinks()
	workers := poolSize()
	if workers > n {
		workers = n
	}
	// Chunks several times smaller than n/workers keep stragglers bounded
	// without paying one dispatch per scenario.
	chunk := (n + workers*8 - 1) / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	runShards(workers, func(int) {
		w := acquireMCWorker(links)
		basis, surv := w.basis, w.surv[:0]
		for {
			c := int(next.Add(1)) - 1
			lo := c * chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for s := lo; s < hi; s++ {
				word, bit := s>>6, uint64(1)<<(s&63)
				surv = surv[:0]
				for k := range idx {
					if masks[k][word]&bit != 0 {
						surv = append(surv, k)
					}
				}
				basis.Reset()
				for _, k := range surv {
					basis.AddSparse(rowCols[k], rowVals[k])
					if basis.Rank() == links {
						break
					}
				}
				ranks[s] = basis.Rank()
			}
		}
		w.surv = surv
		mcWorkerPool.Put(w)
	})

	sum := 0
	for _, r := range ranks {
		sum += r
	}
	return float64(sum) / float64(n)
}

// MonteCarloInc is the Monte Carlo incremental oracle behind MonteRoMe: it
// fixes a panel of sampled failure scenarios up front and maintains, per
// scenario, an incremental basis of the surviving committed rows. The
// marginal gain of a candidate is the fraction of scenarios in which it
// both survives and increases the surviving rank — an unbiased estimate of
// the true marginal ER gain over the panel.
//
// Everything on the hot path is bit-packed. The panel lives in a
// link-major ScenarioSet and each candidate's survival mask over the panel
// is precomputed once. Scenarios are grouped into equivalence classes: two
// scenarios in which every committed row survived identically have received
// the exact same Add sequence, so one shared basis serves the whole class.
// Each class is represented by its own membership bitmask over the panel,
// so the per-class survivor count a Gain needs is a word-wise AND+popcount
// against the candidate's survival mask — no per-scenario work at all — and
// each class with survivors is probed once against its basis. Add splits
// classes along the new row's survival mask with three word-ops per class.
// Classes are bounded by min(2^adds, runs): a MonteRoMe run on the 400-path
// AS1755 instance with a 1000-scenario panel ends with about 400 classes,
// so a late Gain does hundreds of rank probes where a per-scenario oracle
// does a thousand.
//
// Rank probes run on rank-only float64 sparse bases, since ER(R) is rank
// over the reals. Gain and Add run on the calling goroutine, so results are
// bit-identical to the serial reference oracle (NewMonteCarloIncSerial,
// enforced by TestMonteCarloIncMatchesSerial); only the construction-time
// mask precompute is sharded over the worker pool. The steady state — Gain
// and splitless Add — allocates nothing: masks and scratch live in
// per-oracle slabs, class bases keep their storage across rows, and one
// probe workspace serves every Gain (TestMonteCarloIncSteadyStateZeroAlloc).
type MonteCarloInc struct {
	pm    *tomo.PathMatrix
	set   *failure.ScenarioSet
	words int // panel words per mask

	// masks[i] is candidate i's survival mask over the panel, carved from
	// one slab; rowCols[i]/rowVals[i] its sorted sparse row.
	masks   [][]uint64
	rowCols [][]int
	rowVals [][]float64
	value   float64

	// Scenario equivalence classes. classMask[c] is class c's membership
	// bitmask over the panel (classes partition the panel), classBits[c]
	// its popcount, bases[c] its rank-only basis.
	classMask [][]uint64
	classBits []int32
	bases     []*linalg.SparseBasis

	// ws is the probe workspace every Gain reuses.
	ws *linalg.Workspace
}

var _ Incremental = (*MonteCarloInc)(nil)

// NewMonteCarloInc draws runs scenarios from the model and returns an empty
// oracle. The rng drives the packed panel draw; the serial reference
// obtains the identical panel from the same seed.
func NewMonteCarloInc(pm *tomo.PathMatrix, model failure.Sampler, runs int, rng *rand.Rand) *MonteCarloInc {
	set, err := failure.SampleScenarioSet(model, rng, runs)
	if err != nil {
		panic("er: " + err.Error()) // only reachable with runs <= 0 or a zero-link sampler
	}
	mc := &MonteCarloInc{pm: pm, set: set, words: set.Words()}
	links := pm.NumLinks()

	// The whole panel starts as one class over the empty basis; the empty
	// link list survives everything, so SurvivalMask(nil) is the all-ones
	// panel mask with clean padding.
	mc.classMask = [][]uint64{set.SurvivalMask(nil, nil)}
	mc.classBits = []int32{int32(runs)}
	mc.bases = []*linalg.SparseBasis{linalg.NewSparseBasisRankOnly(links)}

	mc.ws = linalg.NewWorkspace(links)

	// Precompute every candidate's survival mask (one slab) and sparse row,
	// chunked over paths.
	n := pm.NumPaths()
	maskSlab := make([]uint64, n*mc.words)
	mc.masks = make([][]uint64, n)
	mc.rowCols = make([][]int, n)
	mc.rowVals = make([][]float64, n)
	var nextPath atomic.Int64
	runShards(min(poolSize(), n), func(int) {
		for {
			i := int(nextPath.Add(1)) - 1
			if i >= n {
				return
			}
			mc.masks[i] = pm.SurvivalMask(set, i, maskSlab[i*mc.words:(i+1)*mc.words:(i+1)*mc.words])
			mc.rowCols[i], mc.rowVals[i] = sparsifyRow(pm.Row(i))
		}
	})
	return mc
}

// sparsifyRow converts a dense row to sorted parallel (cols, vals) form.
func sparsifyRow(row []float64) ([]int, []float64) {
	var cols []int
	var vals []float64
	for j, x := range row {
		if x != 0 {
			cols = append(cols, j)
			vals = append(vals, x)
		}
	}
	return cols, vals
}

// Runs returns the scenario panel size.
func (mc *MonteCarloInc) Runs() int { return mc.set.N() }

// Classes returns the current number of scenario equivalence classes (an
// observability hook; bounded by min(2^adds, runs)).
func (mc *MonteCarloInc) Classes() int { return len(mc.classMask) }

// andCount returns the popcount of a AND b (equal lengths).
func andCount(a, b []uint64) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// Gain implements Incremental. Per class, a word-parallel count of the
// scenarios in which the path survives and, if there are any, one rank
// probe against the class basis: the path gains in every surviving
// scenario of a class whose basis does not span its row.
func (mc *MonteCarloInc) Gain(path int) float64 {
	mask, cols, vals := mc.masks[path], mc.rowCols[path], mc.rowVals[path]
	hits := 0
	for c, cm := range mc.classMask {
		if cnt := andCount(mask, cm); cnt != 0 && !mc.bases[c].InSpanSparseWith(cols, vals, mc.ws) {
			hits += cnt
		}
	}
	return float64(hits) / float64(mc.set.N())
}

// Add implements Incremental. Classes split along the new row's survival
// mask: a class whose scenarios all survive takes the row in place; a
// partial class keeps its non-survivors and spawns a new class with a
// cloned, extended basis for the survivors (three word-ops on the
// membership masks). Classes are visited in ascending id and new ids
// appended in that order, so the evolution is deterministic. A splitless
// Add (every touched class moves wholesale, no new rank) allocates
// nothing.
func (mc *MonteCarloInc) Add(path int) {
	mask := mc.masks[path]
	nc := len(mc.classMask) // new classes appended below start disjoint from mask work done here
	hits := 0
	for c := 0; c < nc; c++ {
		cm := mc.classMask[c]
		cnt := andCount(mask, cm)
		if cnt == 0 {
			continue
		}
		target := c
		if cnt != int(mc.classBits[c]) {
			// Partial survival: survivors move to a fresh class whose basis
			// starts as a clone of c's.
			newMask := make([]uint64, mc.words)
			for w := range cm {
				newMask[w] = cm[w] & mask[w]
				cm[w] &^= mask[w]
			}
			mc.classBits[c] -= int32(cnt)
			target = len(mc.classMask)
			mc.classMask = append(mc.classMask, newMask)
			mc.classBits = append(mc.classBits, int32(cnt))
			mc.bases = append(mc.bases, mc.bases[c].Clone())
		}
		if added, _, _ := mc.bases[target].AddSparse(mc.rowCols[path], mc.rowVals[path]); added {
			hits += cnt
		}
	}
	mc.value += float64(hits) / float64(mc.set.N())
}

// Value implements Incremental.
func (mc *MonteCarloInc) Value() float64 { return mc.value }
