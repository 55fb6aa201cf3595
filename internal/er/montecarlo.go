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

// basisPool recycles rank-only bases across oracles and calls: the class
// bases a released MonteCarloInc hands back, and the per-worker bases of
// the batch MonteCarlo estimator. A pooled basis holds whatever its last
// owner left in it; takers Reset it or overwrite it with CopyFrom.
var basisPool sync.Pool

// getBasis returns a pooled rank-only basis for the given link count, or a
// new empty one.
func getBasis(links int) *linalg.SparseBasis {
	if b, ok := basisPool.Get().(*linalg.SparseBasis); ok && b.Dim() == links {
		return b
	}
	return linalg.NewSparseBasisRankOnly(links)
}

// MonteCarlo estimates ER(R) as the average rank of the surviving rows over
// n freshly sampled failure scenarios. Scenarios are drawn up front on the
// caller's goroutine (so the result is deterministic in rng) and packed
// into a bit-column ScenarioSet; per-scenario survivor filtering is then a
// bit test against each path's survival mask instead of a per-edge walk.
// Ranks are evaluated in parallel via chunked atomic-counter dispatch —
// workers claim fixed index ranges, so there is no per-scenario channel
// send and the per-scenario ranks land in fixed slots regardless of
// scheduling. Per-worker bases come from the pool MonteCarloInc's class
// bases are recycled through.
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
	for k, i := range idx {
		masks[k] = pm.SurvivalMask(set, i, maskSlab[k*words:(k+1)*words:(k+1)*words])
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
		basis := getBasis(links)
		surv := make([]int, 0, len(idx))
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
					basis.Add(pm.SparseRow(idx[k]))
					if basis.Rank() == links {
						break
					}
				}
				ranks[s] = basis.Rank()
			}
		}
		basisPool.Put(basis)
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
// AS1755 instance with a 1000-scenario panel ends with about 400 classes.
//
// Each class also carries a span memo, a bitset over candidate paths. A
// class basis only grows, so once a probe finds a row in span, the class
// and every class later split from it skip that row's count and probe in
// Gain, and its basis update in Add. On the 400-path AS1755 instances the
// memo skips about half of the rank probes (TestMonteCarloIncSpanMemoSound
// re-checks every memoized answer against the current basis).
//
// Rank probes run on rank-only float64 sparse bases, since ER(R) is rank
// over the reals, fed the path matrix's sorted rows (PathMatrix.SparseRow).
// Gain and Add run on the calling goroutine, so results are
// bit-identical to the serial reference oracle (NewMonteCarloIncSerial,
// enforced by TestMonteCarloIncMatchesSerial); only the construction-time
// mask precompute is sharded over the worker pool. The steady state — Gain
// and splitless Add — allocates nothing: masks and scratch live in
// per-oracle slabs, a class's membership mask and memo share one slab,
// class bases keep their storage across rows, and one probe workspace
// serves every Gain (TestMonteCarloIncSteadyStateZeroAlloc). Class bases
// come from a package pool: Release hands them back once the oracle is
// done, and later oracles fill them by Reset or CopyFrom, so a warm
// MonteRoMe job reuses the previous job's row storage.
type MonteCarloInc struct {
	pm    *tomo.PathMatrix
	set   *failure.ScenarioSet
	words int // panel words per mask

	// masks[i] is candidate i's survival mask over the panel, carved from
	// one slab.
	masks [][]uint64
	value float64

	// Scenario equivalence classes, one slab per class. The first words
	// words of classes[c] are class c's membership bitmask over the panel
	// (classes partition the panel). The rest is its span memo: a bitset
	// over candidate paths whose bit q is set once a probe of class c, or
	// of a class c split from, has found row q in span. classBits[c] is the
	// membership popcount, bases[c] the rank-only basis.
	classes   [][]uint64
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

	// The whole panel starts as one class over the empty basis with an
	// empty memo; the empty link list survives everything, so
	// SurvivalMask(nil) is the all-ones panel mask with clean padding.
	n := pm.NumPaths()
	first := make([]uint64, mc.words+(n+63)/64)
	set.SurvivalMask(nil, first[:mc.words])
	mc.classes = [][]uint64{first}
	mc.classBits = []int32{int32(runs)}
	basis := getBasis(links)
	basis.Reset()
	mc.bases = []*linalg.SparseBasis{basis}

	mc.ws = linalg.NewWorkspace(links)

	// Precompute every candidate's survival mask (one slab), chunked over
	// paths.
	maskSlab := make([]uint64, n*mc.words)
	mc.masks = make([][]uint64, n)
	var nextPath atomic.Int64
	runShards(min(poolSize(), n), func(int) {
		for {
			i := int(nextPath.Add(1)) - 1
			if i >= n {
				return
			}
			mc.masks[i] = pm.SurvivalMask(set, i, maskSlab[i*mc.words:(i+1)*mc.words:(i+1)*mc.words])
		}
	})
	return mc
}

// Runs returns the scenario panel size.
func (mc *MonteCarloInc) Runs() int { return mc.set.N() }

// Classes returns the current number of scenario equivalence classes (an
// observability hook; bounded by min(2^adds, runs)).
func (mc *MonteCarloInc) Classes() int { return len(mc.classes) }

// Release returns the oracle's class bases to the pool later oracles draw
// from. The oracle is done afterwards: Gain and Add panic, and Classes
// reports 0. An oracle that is never released leaves its bases to the
// garbage collector.
func (mc *MonteCarloInc) Release() {
	for _, b := range mc.bases {
		basisPool.Put(b)
	}
	mc.bases, mc.classes, mc.classBits, mc.masks = nil, nil, nil, nil
}

// memoBit locates a path's bit in a class slab's span memo.
func (mc *MonteCarloInc) memoBit(path int) (word int, bit uint64) {
	return mc.words + path>>6, uint64(1) << (path & 63)
}

// andCount returns the popcount of a AND b over the words of a (b may be
// longer).
func andCount(a, b []uint64) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// Gain implements Incremental. Per class whose span memo does not already
// hold the path, a word-parallel count of the scenarios in which the path
// survives and, if there are any, one rank probe against the class basis:
// the path gains in every surviving scenario of a class whose basis does
// not span its row. An in-span answer sets the memo bit. A class basis only
// grows (Add extends it in place or in a copy for a split-off class), so
// the answer cannot change and a memoized class contributes no hits.
func (mc *MonteCarloInc) Gain(path int) float64 {
	mask := mc.masks[path]
	cols, vals := mc.pm.SparseRow(path)
	mw, bit := mc.memoBit(path)
	hits := 0
	for c, cl := range mc.classes {
		if cl[mw]&bit != 0 {
			continue
		}
		cnt := andCount(mask, cl)
		if cnt == 0 {
			continue
		}
		if mc.bases[c].InSpanWith(cols, vals, mc.ws) {
			cl[mw] |= bit
		} else {
			hits += cnt
		}
	}
	return float64(hits) / float64(mc.set.N())
}

// Add implements Incremental. Classes split along the new row's survival
// mask: a class whose scenarios all survive takes the row in place; a
// partial class keeps its non-survivors and spawns a new class, with a
// copy of its basis and span memo, for the survivors (three word-ops on
// the membership masks). A class whose memo holds the row is skipped
// before its survivors are counted. An in-span row leaves a rank-only
// basis as it is, and it never splits its class: every link of a row in
// the span of a class basis lies on a row the class committed, which
// survives in all of the class's scenarios, so the row does too. The same
// argument makes every split row independent of the parent basis, so the
// child's Add always raises its rank (TestMonteCarloIncSpanMemoSound
// checks both).
// Classes are visited in ascending id and new ids appended in that order,
// so the evolution is deterministic. A splitless Add (every touched class
// moves wholesale, no new rank) allocates nothing.
func (mc *MonteCarloInc) Add(path int) {
	mask := mc.masks[path]
	cols, vals := mc.pm.SparseRow(path)
	mw, bit := mc.memoBit(path)
	nc := len(mc.classes) // new classes appended below start disjoint from mask work done here
	hits := 0
	for c := 0; c < nc; c++ {
		cl := mc.classes[c]
		if cl[mw]&bit != 0 {
			continue
		}
		cnt := andCount(mask, cl)
		if cnt == 0 {
			continue
		}
		target := c
		if cnt != int(mc.classBits[c]) {
			// Partial survival: survivors move to a fresh class whose basis
			// and memo start as copies of c's, in one slab like c's.
			child := make([]uint64, len(cl))
			for w, m := range mask {
				child[w] = cl[w] & m
				cl[w] &^= m
			}
			copy(child[mc.words:], cl[mc.words:])
			mc.classBits[c] -= int32(cnt)
			target = len(mc.classes)
			mc.classes = append(mc.classes, child)
			mc.classBits = append(mc.classBits, int32(cnt))
			b := getBasis(mc.pm.NumLinks())
			b.CopyFrom(mc.bases[c])
			mc.bases = append(mc.bases, b)
		}
		if added, _, _ := mc.bases[target].Add(cols, vals); added {
			hits += cnt
		}
	}
	mc.value += float64(hits) / float64(mc.set.N())
}

// Value implements Incremental.
func (mc *MonteCarloInc) Value() float64 { return mc.value }
