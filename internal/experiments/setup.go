// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI) as programmatic runners that return structured
// series. The cmd/experiments binary prints them, the repository-root
// benchmarks time them, and EXPERIMENTS.md records paper-vs-measured
// shapes.
//
// Scale: the paper evaluates 5 random monitor sets × 500 failure scenarios
// on three Rocketfuel-scale topologies. Every runner takes an explicit
// Scale so tests and benchmarks can run faithful smaller instances while
// cmd/experiments defaults to paper scale.
package experiments

import (
	"fmt"

	"robusttomo/internal/cost"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// Scale bundles the evaluation-size knobs shared by all runners.
type Scale struct {
	MonitorSets int // random monitor placements averaged over (paper: 5)
	Scenarios   int // failure scenarios per placement (paper: 500)
	// MonteCarloRuns is the scenario panel size of the MonteRoMe oracle
	// (paper: 50).
	MonteCarloRuns int
	// ExpectedFailures calibrates the failure model's expected number of
	// concurrently failed links per epoch (DESIGN.md §4).
	ExpectedFailures float64
	Seed             uint64
	// Workers shards each runner's independent trials (monitor sets,
	// x-axis points) across goroutines: 0 or 1 runs serially, negative
	// resolves to GOMAXPROCS. Results are byte-identical at any value —
	// every trial owns its RNG streams and result slot (see runner.go).
	Workers int
	// Progress, when non-nil, is called as trials complete with the number
	// finished so far and the total for the current runner. Calls are
	// serialized and done is strictly increasing within a runner.
	Progress func(done, total int)
}

// PaperScale mirrors Section VI-A.
func PaperScale() Scale {
	return Scale{MonitorSets: 5, Scenarios: 500, MonteCarloRuns: 50, ExpectedFailures: 3, Seed: 2014}
}

// QuickScale is a faithful miniature for tests and benchmarks.
func QuickScale() Scale {
	return Scale{MonitorSets: 2, Scenarios: 60, MonteCarloRuns: 25, ExpectedFailures: 2, Seed: 2014}
}

// Workload identifies a topology and candidate-path count, the paper's
// per-figure workload unit (e.g. AS3257 with 1600 candidates). Preset names
// one of the Table I topologies; set Custom instead for an explicit
// generator configuration (tests, ablations).
type Workload struct {
	Preset         string
	CandidatePaths int
	Custom         *topo.Config
	// Loaded, when non-nil, uses an already-materialized topology (e.g.
	// from topo.LoadWeights) instead of generating one. Takes precedence
	// over Custom and Preset.
	Loaded *topo.Topology
}

// label returns the workload's display name.
func (w Workload) label() string {
	switch {
	case w.Loaded != nil:
		return w.Loaded.Name
	case w.Custom != nil:
		return w.Custom.Name
	default:
		return w.Preset
	}
}

// PaperWorkloads returns the Fig. 5 workload triple.
func PaperWorkloads() []Workload {
	return []Workload{
		{Preset: topo.AS1755, CandidatePaths: 400},
		{Preset: topo.AS3257, CandidatePaths: 1600},
		{Preset: topo.AS1239, CandidatePaths: 2500},
	}
}

// Instance is one fully materialized evaluation setting: topology, monitor
// placement, candidate paths, failure and cost models.
type Instance struct {
	Topology *topo.Topology
	Sources  []graph.NodeID
	Dests    []graph.NodeID
	PM       *tomo.PathMatrix
	Model    *failure.Model
	Cost     *cost.Model
	Costs    []float64 // per candidate path
}

// BuildInstance materializes a workload at the given monitor-set index
// (each index draws a fresh random monitor placement, as in the paper's
// averaging over 5 sets).
func BuildInstance(w Workload, sc Scale, monitorSet int) (*Instance, error) {
	var tp *topo.Topology
	var err error
	switch {
	case w.Loaded != nil:
		tp = w.Loaded
	case w.Custom != nil:
		tp, err = topo.Generate(*w.Custom)
	default:
		tp, err = topo.Preset(w.Preset)
	}
	if err != nil {
		return nil, err
	}
	return buildOn(tp, w.CandidatePaths, sc, monitorSet)
}

func buildOn(tp *topo.Topology, candidatePaths int, sc Scale, monitorSet int) (*Instance, error) {
	rng := stats.NewRNG(sc.Seed, uint64(monitorSet)*2654435761+17)

	// Monitor placement: k sources + k destinations among access routers,
	// sized so that |S|·|D| ≥ candidatePaths.
	k := 1
	for k*k < candidatePaths {
		k++
	}
	pool := tp.Access
	if len(pool) < 2*k {
		pool = append(append([]graph.NodeID{}, tp.Access...), tp.Core...)
	}
	if len(pool) < 2*k {
		return nil, fmt.Errorf("experiments: %s has %d candidate monitors, need %d", tp.Name, len(pool), 2*k)
	}
	picked := stats.SampleWithoutReplacement(rng, len(pool), 2*k)
	sources := make([]graph.NodeID, k)
	dests := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		sources[i] = pool[picked[i]]
		dests[i] = pool[picked[k+i]]
	}

	paths, err := routing.MonitorPairs(tp.Graph, sources, dests)
	if err != nil {
		return nil, err
	}
	if len(paths) > candidatePaths {
		paths = paths[:candidatePaths]
	}
	pm, err := tomo.NewPathMatrix(paths, tp.Graph.NumEdges())
	if err != nil {
		return nil, err
	}

	model, err := failure.NewModel(failure.Config{
		Links:            tp.Graph.NumEdges(),
		ExpectedFailures: sc.ExpectedFailures,
		Seed:             sc.Seed + uint64(monitorSet),
	})
	if err != nil {
		return nil, err
	}

	monitors := append(append([]graph.NodeID{}, sources...), dests...)
	cm, err := cost.NewModel(cost.Config{Monitors: monitors, Seed: sc.Seed + uint64(monitorSet), PeerProbability: -1})
	if err != nil {
		return nil, err
	}
	return &Instance{
		Topology: tp,
		Sources:  sources,
		Dests:    dests,
		PM:       pm,
		Model:    model,
		Cost:     cm,
		Costs:    cm.Costs(paths),
	}, nil
}

// EvalMetrics evaluates a selection under sampled failure scenarios and
// returns the per-scenario rank and link-identifiability samples. One
// survivor buffer and one elimination basis serve the whole scenario loop,
// so evaluation cost is dominated by the rank computations themselves.
func (in *Instance) EvalMetrics(selected []int, scenarios []failure.Scenario, withIdent bool) (ranks, idents []float64) {
	ranks = make([]float64, len(scenarios))
	if withIdent {
		idents = make([]float64, len(scenarios))
	}
	var surv []int
	basis := in.PM.NewRankBasis()
	for s, sc := range scenarios {
		surv = in.PM.SurvivingInto(surv, selected, sc)
		if withIdent {
			rank, ident := in.PM.RankAndIdentifiableWith(surv, basis)
			ranks[s] = float64(rank)
			idents[s] = float64(ident)
			continue
		}
		ranks[s] = float64(in.PM.RankOfWith(surv, basis))
	}
	return ranks, idents
}

// Algorithms used across the figures, keyed by the paper's names.
const (
	AlgProbRoMe   = "ProbRoMe"
	AlgMonteRoMe  = "MonteRoMe"
	AlgSelectPath = "SelectPath"
	AlgMatRoMe    = "MatRoMe"
)

// Select runs the named algorithm on the instance at the given budget and
// returns the selected candidate indices.
func (in *Instance) Select(alg string, budget float64, sc Scale, rngStream uint64) ([]int, error) {
	switch alg {
	case AlgProbRoMe:
		res, err := selection.RoMe(in.PM, in.Costs, budget, er.NewProbBoundInc(in.PM, in.Model), selection.NewOptions())
		if err != nil {
			return nil, err
		}
		return res.Selected, nil
	case AlgMonteRoMe:
		rng := stats.NewRNG(sc.Seed, rngStream+0x3C)
		oracle := er.NewMonteCarloInc(in.PM, in.Model, sc.MonteCarloRuns, rng)
		res, err := selection.RoMe(in.PM, in.Costs, budget, oracle, selection.NewOptions())
		oracle.Release()
		if err != nil {
			return nil, err
		}
		return res.Selected, nil
	case AlgSelectPath:
		res, err := selection.SelectPathBudgeted(in.PM, in.Costs, budget)
		if err != nil {
			return nil, err
		}
		return res.Selected, nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", alg)
	}
}
