// Package selection implements the path-selection algorithms the paper
// evaluates:
//
//   - RoMe (Algorithm 1): budgeted greedy maximization of the submodular
//     expected rank with the Krause–Guestrin best-singleton fallback,
//     giving the 1 − 1/√e approximation guarantee. The ER oracle is
//     pluggable (ProbBound → ProbRoMe, Monte Carlo → MonteRoMe, exact for
//     tiny instances), and gains are evaluated lazily, which is exact
//     because every oracle's marginal gains are non-increasing.
//   - MatRoMe (Section IV-B): optimal greedy under the linear-independence
//     matroid with unit costs, where ER is modular (= Σ EA).
//   - SelectPath (Chen et al.): the arbitrary-basis baseline via pivoted
//     Cholesky, greedily fitted to the budget as described in Section VI-B.
//   - Exact brute-force and knapsack solvers for small-instance
//     verification of the approximation guarantee.
package selection

import (
	"context"
	"fmt"
	"time"

	"robusttomo/internal/er"
	"robusttomo/internal/obs"
	"robusttomo/internal/tomo"
)

// Result is the outcome of a selection algorithm.
type Result struct {
	Selected  []int   // chosen candidate path indices, in selection order
	Cost      float64 // total probing cost of the selection
	Objective float64 // the algorithm's own objective estimate for Selected
	// GainEvaluations counts oracle gain computations, for the lazy vs
	// naive ablation.
	GainEvaluations int
	// SpeculativeEvaluations is always zero.
	//
	// Deprecated: RoMe evaluates every gain on its one serial loop and
	// never computes a gain it does not use. The field is kept, always
	// zero, for readers of the earlier result shape.
	SpeculativeEvaluations int
}

// Options tunes the RoMe greedy.
type Options struct {
	// Lazy enables lazy gain evaluation (default in NewOptions). Naive
	// mode recomputes every candidate's gain each round; results are
	// identical, evaluation counts are not.
	Lazy bool
	// Ctx, when non-nil, is checked between greedy iterations: once it is
	// cancelled, RoMe returns ctx.Err() (wrapped) instead of completing
	// the selection. Long MonteRoMe runs become interruptible; a nil Ctx
	// never cancels. The check sits between iterations, so cancellation
	// latency is one gain evaluation, not one full run.
	Ctx context.Context
	// Scratch supplies reusable working storage for the greedy's O(n)
	// buffers. Callers that run RoMe many times over one instance (the LSR
	// learner runs it every epoch) pass the same Scratch to skip the
	// per-run setup allocations; results are identical either way, but
	// Result.Selected then aliases the Scratch (valid until its next run).
	// Nil allocates fresh storage. A Scratch must not be shared across
	// concurrent RoMe calls.
	Scratch *Scratch
	// Observer, when non-nil, receives selection metrics (run counts, gain
	// evaluation totals, per-run and per-iteration durations). Metrics are
	// read off the computed Result and never influence the selection; with
	// a nil Observer the greedy performs zero clock reads and holds only
	// nil metric handles.
	Observer *obs.Registry
}

// Scratch holds RoMe's reusable working storage; see Options.Scratch. The
// zero value is ready to use. Result.Selected of a scratch-backed run
// aliases the Scratch and is only valid until the next run with it; copy
// it to retain the selection.
type Scratch struct {
	initial   []float64
	entries   gainHeap
	remaining []bool
	gains     []float64
	selected  []int
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NewOptions returns the default options: lazy evaluation.
func NewOptions() Options { return Options{Lazy: true} }

// gainHeap is a max-heap of candidate paths keyed by stale weight. It is a
// typed reimplementation of the container/heap operations: the standard
// package's any-valued Push/Pop box every gainEntry, which made heap
// traffic the dominant allocation of a greedy run. The entry ordering is a
// strict total order — weights tie-break on the unique path index — so the
// pop sequence is implementation-independent and results are identical to
// the container/heap version.
type gainHeap []gainEntry

type gainEntry struct {
	path   int
	weight float64 // gain/cost at the time of evaluation
	gain   float64
	round  int // greedy round at which the gain was computed
}

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight > h[j].weight
	}
	return h[i].path < h[j].path // deterministic tie-break
}

func (h gainHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *gainHeap) push(e gainEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *gainHeap) pop() gainEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	e := old[n]
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	return e
}

func (h gainHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h gainHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(right, left) {
			best = right
		}
		if !h.less(best, i) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// RoMe runs Algorithm 1 over the candidates of pm with per-path costs and
// a probing budget, using the provided (empty) incremental ER oracle. The
// greedy stops once no remaining candidate has a positive marginal gain.
// The oracle is consumed: after return it reflects the greedy set R_out
// even when the best-singleton fallback wins.
func RoMe(pm *tomo.PathMatrix, costs []float64, budget float64, oracle er.Incremental, opts Options) (Result, error) {
	n := pm.NumPaths()
	if err := checkBudgeted(n, costs, budget); err != nil {
		return Result{}, err
	}
	if err := cancelErr(opts.Ctx); err != nil {
		return Result{}, err
	}

	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	m := newSelMetrics(opts.Observer)
	var runStart, iterStart time.Time
	if m.runSeconds != nil {
		runStart = time.Now()
		iterStart = runStart
	}

	res := Result{}
	// Initial gains double as the best-singleton scan: on the empty set,
	// Gain(q) is the oracle's ER({q}). The probe-free InitialGains sweep
	// computes exactly what the per-path loop would, and counts the same
	// n evaluations, so the lazy-vs-naive ablation is unaffected.
	initial := growF64(sc.initial, n)
	sc.initial = initial
	if ig, ok := oracle.(er.InitialGainer); !ok || !ig.InitialGains(initial) {
		for q := range initial {
			initial[q] = oracle.Gain(q)
		}
	}
	res.GainEvaluations += n
	bestSingle, bestSingleVal := -1, 0.0
	for q := 0; q < n; q++ {
		if costs[q] <= budget && initial[q] > bestSingleVal {
			bestSingle, bestSingleVal = q, initial[q]
		}
	}

	selected := sc.selected[:0]
	spent := 0.0
	if opts.Lazy {
		if cap(sc.entries) < n {
			sc.entries = make(gainHeap, 0, n)
		}
		h := sc.entries[:0]
		for q := 0; q < n; q++ {
			h = append(h, gainEntry{path: q, gain: initial[q], weight: weightOf(initial[q], costs[q]), round: 0})
		}
		h.init()
		round := 0
		for h.Len() > 0 {
			if err := cancelErr(opts.Ctx); err != nil {
				return Result{}, err
			}
			top := h.pop()
			if top.round != round {
				// Stale: refresh against the current set and re-insert.
				g := oracle.Gain(top.path)
				res.GainEvaluations++
				h.push(gainEntry{path: top.path, gain: g, weight: weightOf(g, costs[top.path]), round: round})
				continue
			}
			if top.gain <= 0 {
				break // no candidate can improve the objective
			}
			if spent+costs[top.path] <= budget {
				oracle.Add(top.path)
				selected = append(selected, top.path)
				spent += costs[top.path]
				if m.iterSeconds != nil {
					now := time.Now()
					m.iterSeconds.Observe(now.Sub(iterStart).Seconds())
					iterStart = now
				}
				// Entries computed in earlier rounds are now stale; the
				// round tag invalidates them lazily on pop.
				round++
			}
			// Whether added or discarded for budget, the path leaves R.
		}
		sc.entries = h[:0]
	} else {
		remaining := growBools(sc.remaining, n)
		sc.remaining = remaining
		gains := growF64(sc.gains, n)
		sc.gains = gains
		copy(gains, initial)
		for {
			if err := cancelErr(opts.Ctx); err != nil {
				return Result{}, err
			}
			best, bestWeight := -1, 0.0
			for q := 0; q < n; q++ {
				if remaining[q] {
					continue
				}
				w := weightOf(gains[q], costs[q])
				if best == -1 || w > bestWeight { // ties keep the lower index
					best, bestWeight = q, w
				}
			}
			if best == -1 || gains[best] <= 0 {
				break
			}
			if spent+costs[best] <= budget {
				oracle.Add(best)
				selected = append(selected, best)
				spent += costs[best]
				if m.iterSeconds != nil {
					now := time.Now()
					m.iterSeconds.Observe(now.Sub(iterStart).Seconds())
					iterStart = now
				}
				for q := 0; q < n; q++ {
					if !remaining[q] && q != best {
						gains[q] = oracle.Gain(q)
						res.GainEvaluations++
					}
				}
			}
			remaining[best] = true
		}
	}

	sc.selected = selected
	res.Selected, res.Cost, res.Objective = selected, spent, oracle.Value()
	if bestSingle >= 0 && bestSingleVal > res.Objective {
		res.Selected, res.Cost, res.Objective = []int{bestSingle}, costs[bestSingle], bestSingleVal
	}
	m.record(&res, runStart)
	return res, nil
}

// checkBudgeted validates the costs and budget of a budgeted selection.
// Every comparison is written so that NaN fails like a negative value;
// +Inf stays allowed (such a path never fits a finite budget).
func checkBudgeted(n int, costs []float64, budget float64) error {
	if len(costs) != n {
		return fmt.Errorf("selection: %d costs for %d paths", len(costs), n)
	}
	for i, c := range costs {
		if !(c >= 0) {
			return fmt.Errorf("selection: invalid cost %v for path %d", c, i)
		}
	}
	if !(budget >= 0) {
		return fmt.Errorf("selection: invalid budget %v", budget)
	}
	return nil
}

// cancelErr reports a cancelled Options.Ctx (nil contexts never cancel).
func cancelErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("selection: cancelled: %w", err)
	}
	return nil
}

func weightOf(gain, cost float64) float64 {
	if cost <= 0 {
		// Zero-cost paths are infinitely attractive per unit cost; rank
		// them by raw gain scaled to dominate any finite weight.
		return gain * 1e18
	}
	return gain / cost
}
