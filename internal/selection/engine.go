package selection

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"robusttomo/internal/engine"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/obs"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// EngineName is the registry name of the selection engine: the four RoMe
// path-selection algorithms re-homed behind the engine API. It is the
// JobSpec.Engine value of a v2 submission; v1 submissions naming one of
// the Alg* algorithms map onto it.
const EngineName = "selection"

// Algorithm names the selection engine accepts (the `tomo select -alg`
// and JobSpec v1 `algorithm` names).
const (
	AlgProbRoMe   = "probrome"
	AlgMonteRoMe  = "monterome"
	AlgMatRoMe    = "matrome"
	AlgSelectPath = "selectpath"
)

// DefaultMCRuns is the Monte Carlo scenario count applied when a
// monterome job omits mc_runs.
const DefaultMCRuns = 200

// MaxMCRuns is the largest mc_runs a monterome job may ask for. The panel,
// the per-path survival masks and the scenario class count all grow with
// it; the limit is 16 times the benchmark job's 1000-scenario panel.
const MaxMCRuns = 1 << 14

// MaxLinks is the largest link count a scenario source may declare,
// through links or through its probs. A source allocates per-link state
// as it is built, before any other check can run, so without the limit
// a 74-byte body naming 20 million links costs 800 MB. The limit is 67
// times AS1239's 972 links.
const MaxLinks = 1 << 16

// MaxPathCells is the largest path matrix, len(paths) × links, a selection
// job may ask for. Run allocates a float64 per cell before any greedy
// step, so without the limit a 40 KB body naming 10,000 one-link paths
// over a 65,536-link scenario source asks for 5.2 GB. The limit is 16
// times the benchmark's AS3257/1600 ProbRoMe job (524,800 cells).
const MaxPathCells = 1 << 23

// MaxPathRuns is the largest len(paths) × mc_runs a monterome job may ask
// for. The Monte Carlo oracle keeps one mc_runs-bit survival mask per
// path, so the 2.1 million one-link paths an 8 MiB body holds would ask
// for 4.3 GB at MaxMCRuns. The limit is 21 times the benchmark's
// AS1755/400 MonteRoMe job (400,000 path-runs).
const MaxPathRuns = 1 << 23

// checkProduct rejects paths × per above limit. It divides instead of
// multiplying, so no declared size can overflow the test.
func checkProduct(paths, per int, what string, limit int64) error {
	if paths > 0 && int64(per) > limit/int64(paths) {
		return fmt.Errorf("service: %d paths × %d %s is more than %d", paths, per, what, limit)
	}
	return nil
}

// mcStream is the RNG stream constant for engine Monte Carlo jobs, so a
// job's scenario stream depends only on its spec seed.
const mcStream = 0x5e1ec7

// scenarioKeyDomain domain-separates the keys of jobs carrying a
// scenario source from the flat-field keys (which predate sources and
// must stay bit-identical for existing caches), and versions the
// scenario encoding.
const scenarioKeyDomain = "selection/scenario/v1"

// Params is the selection engine's optional JobSpec `params` payload.
type Params struct {
	// Scenario names a registered failure.ScenarioSource the Monte Carlo
	// oracle should sample instead of the i.i.d. process the flat probs
	// describe. When set, the flat probs (and links) may be omitted —
	// they default to the source's stationary marginals — and probrome/
	// matrome/selectpath jobs use exactly those marginals (the
	// correlation-blind view), while monterome samples the source itself.
	Scenario *failure.SourceSpec `json:"scenario"`
}

func init() { engine.Register(selEngine{}) }

// selEngine implements engine.Engine over the four selection algorithms.
type selEngine struct{}

func (selEngine) Name() string     { return EngineName }
func (selEngine) ObsLabel() string { return "selection" }

// Normalize validates the spec and fills defaults, returning the
// canonical job that is hashed and executed. Canonicalization rules
// (DESIGN.md §12): empty algorithm becomes probrome; empty costs become
// explicit unit costs; monterome defaults MCRuns; non-Monte-Carlo
// algorithms zero MCRuns and Seed so equivalent queries share one cache
// entry. The job key is CanonicalInputs.Key over the normalized fields —
// bit-identical to the pre-engine service keys, so caches and clients
// that recorded v1 job IDs keep hitting.
func (selEngine) Normalize(spec engine.Spec) (engine.Job, error) {
	var scenario *failure.SourceSpec
	if len(spec.Params) > 0 {
		dec := json.NewDecoder(bytes.NewReader(spec.Params))
		dec.DisallowUnknownFields()
		var p Params
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("service: decoding selection params: %w", err)
		}
		if p.Scenario == nil {
			return nil, fmt.Errorf("service: selection params must name a scenario source")
		}
		n := max(p.Scenario.Links, len(p.Scenario.Probs))
		if n > MaxLinks {
			return nil, fmt.Errorf("service: scenario source has %d links, more than %d", n, MaxLinks)
		}
		if err := checkProduct(len(spec.Paths), n, "links", MaxPathCells); err != nil {
			return nil, err
		}
		src, err := failure.NewSource(*p.Scenario)
		if err != nil {
			return nil, fmt.Errorf("service: building scenario source: %w", err)
		}
		if spec.Links == 0 {
			spec.Links = src.Links()
		} else if spec.Links != src.Links() {
			return nil, fmt.Errorf("service: job has %d links but scenario source has %d", spec.Links, src.Links())
		}
		if len(spec.Probs) == 0 {
			spec.Probs = src.Marginals()
		} else if len(spec.Probs) != src.Links() {
			return nil, fmt.Errorf("service: %d probabilities for a %d-link scenario source", len(spec.Probs), src.Links())
		}
		scenario = p.Scenario
	}
	if spec.Links <= 0 {
		return nil, fmt.Errorf("service: need a positive link count, got %d", spec.Links)
	}
	if len(spec.Paths) == 0 {
		return nil, fmt.Errorf("service: no candidate paths")
	}
	if err := checkProduct(len(spec.Paths), spec.Links, "links", MaxPathCells); err != nil {
		return nil, err
	}
	if spec.Algorithm == "" {
		spec.Algorithm = AlgProbRoMe
	}
	switch spec.Algorithm {
	case AlgMonteRoMe:
		if spec.MCRuns == 0 {
			spec.MCRuns = DefaultMCRuns
		}
		if spec.MCRuns < 0 || spec.MCRuns > MaxMCRuns {
			return nil, fmt.Errorf("service: mc_runs %d outside [1,%d]", spec.MCRuns, MaxMCRuns)
		}
		if err := checkProduct(len(spec.Paths), spec.MCRuns, "mc_runs", MaxPathRuns); err != nil {
			return nil, err
		}
	case AlgProbRoMe, AlgMatRoMe, AlgSelectPath:
		// Deterministic in the instance alone: the scenario-stream knobs
		// must not split the cache key. A scenario source likewise only
		// reaches these algorithms through its stationary marginals, which
		// are already folded into probs — dropping it here keeps the job
		// key identical to the equivalent explicit-probs submission, so
		// both hit the same cache entry.
		spec.MCRuns = 0
		spec.Seed = 0
		scenario = nil
	default:
		return nil, fmt.Errorf("service: unknown algorithm %q (probrome, monterome, matrome, selectpath)", spec.Algorithm)
	}
	for i, p := range spec.Paths {
		for _, l := range p {
			if l < 0 || l >= spec.Links {
				return nil, fmt.Errorf("service: path %d uses link %d outside [0,%d)", i, l, spec.Links)
			}
		}
	}
	if len(spec.Probs) != spec.Links {
		return nil, fmt.Errorf("service: %d probabilities for %d links", len(spec.Probs), spec.Links)
	}
	for l, p := range spec.Probs {
		if !(p >= 0 && p < 1) { // also rejects NaN
			return nil, fmt.Errorf("service: probability %v for link %d out of [0,1)", p, l)
		}
	}
	if spec.Budget < 0 || spec.Budget != spec.Budget {
		return nil, fmt.Errorf("service: invalid budget %v", spec.Budget)
	}
	switch len(spec.Costs) {
	case 0:
		unit := make([]float64, len(spec.Paths))
		for i := range unit {
			unit[i] = 1
		}
		spec.Costs = unit
	case len(spec.Paths):
		for i, c := range spec.Costs {
			if !(c >= 0) {
				return nil, fmt.Errorf("service: invalid cost %v for path %d", c, i)
			}
		}
	default:
		return nil, fmt.Errorf("service: %d costs for %d paths", len(spec.Costs), len(spec.Paths))
	}
	return &selJob{
		links:     spec.Links,
		paths:     spec.Paths,
		probs:     spec.Probs,
		costs:     spec.Costs,
		budget:    spec.Budget,
		algorithm: spec.Algorithm,
		mcRuns:    spec.MCRuns,
		seed:      spec.Seed,
		scenario:  scenario,
	}, nil
}

// selJob is one normalized selection job.
type selJob struct {
	links     int
	paths     [][]int
	probs     []float64
	costs     []float64
	budget    float64
	algorithm string
	mcRuns    int
	seed      uint64
	// scenario is non-nil only for monterome jobs whose panel is drawn
	// from a named scenario source rather than the i.i.d. probs.
	scenario *failure.SourceSpec
}

// Key is the content-addressed job ID: the canonical hash of everything
// the selection result depends on. Jobs without a scenario source keep
// the pre-source CanonicalInputs key bit-for-bit (existing caches and
// recorded v1 job IDs stay valid); a scenario folds in under its own
// domain tag so a source-driven panel can never collide with an i.i.d.
// one over the same marginals.
func (j *selJob) Key() string {
	base := CanonicalInputs{
		Links:     j.links,
		Paths:     j.paths,
		Probs:     j.probs,
		Costs:     j.costs,
		Budget:    j.budget,
		Algorithm: j.algorithm,
		MCRuns:    j.mcRuns,
		Seed:      j.seed,
	}.Key()
	if j.scenario == nil {
		return base
	}
	h := sha256.New()
	buf := make([]byte, 0, 256)
	buf = append(buf, scenarioKeyDomain...)
	buf = append(buf, base...)
	buf = j.scenario.AppendCanonical(buf)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// Detail reports the normalized algorithm name.
func (j *selJob) Detail() string { return j.algorithm }

// CostHint scales with the greedy's work: candidate paths × links, times
// the scenario panel for the Monte Carlo oracle.
func (j *selJob) CostHint() float64 {
	hint := float64(len(j.paths)) * float64(j.links)
	if j.algorithm == AlgMonteRoMe && j.mcRuns > 0 {
		hint *= float64(j.mcRuns)
	}
	return hint
}

// Run materializes the path matrix and failure model and dispatches to
// the selected algorithm, with ctx wired into the greedy for
// cancellation. Every algorithm here is deterministic in the normalized
// job (Monte Carlo scenarios come from a stats.NewRNG(seed, mcStream)
// stream), which is the property the content-addressed cache relies on.
func (j *selJob) Run(ctx context.Context, reg *obs.Registry) (engine.Result, error) {
	paths := make([]routing.Path, len(j.paths))
	for i, p := range j.paths {
		edges := make([]graph.EdgeID, len(p))
		for k, l := range p {
			edges[k] = graph.EdgeID(l)
		}
		paths[i].Edges = edges
	}
	pm, err := tomo.NewPathMatrix(paths, j.links)
	if err != nil {
		return nil, err
	}
	model, err := failure.FromProbabilities(j.probs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("service: canceled: %w", err)
	}

	opts := NewOptions()
	opts.Ctx = ctx
	opts.Observer = reg
	var res Result
	switch j.algorithm {
	case AlgProbRoMe:
		res, err = RoMe(pm, j.costs, j.budget, er.NewProbBoundInc(pm, model), opts)
	case AlgMonteRoMe:
		sampler := failure.Sampler(model)
		if j.scenario != nil {
			// Rebuilding from the spec resets the source to its canonical
			// initial state, so the panel depends only on the job key.
			src, serr := failure.NewSource(*j.scenario)
			if serr != nil {
				return nil, fmt.Errorf("service: building scenario source: %w", serr)
			}
			sampler = src
		}
		oracle := er.NewMonteCarloInc(pm, sampler, j.mcRuns, stats.NewRNG(j.seed, mcStream))
		res, err = RoMe(pm, j.costs, j.budget, oracle, opts)
		oracle.Release()
	case AlgMatRoMe:
		res, err = MatRoMe(pm, er.Availabilities(pm, model), int(j.budget))
	case AlgSelectPath:
		res, err = SelectPathBudgeted(pm, j.costs, j.budget)
	default:
		// Normalize rejects unknown algorithms; reaching this is a bug.
		return nil, fmt.Errorf("service: unknown algorithm %q", j.algorithm)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SizeBytes implements engine.Result: the struct header plus the
// selected-path slice, matching the service cache's historical
// accounting (128 + 8·|Selected| alongside the key the cache charges
// separately).
func (r Result) SizeBytes() int64 { return int64(8*len(r.Selected)) + 128 }

// Clone implements engine.Result: a copy whose Selected slice is
// detached from the cached original.
func (r Result) Clone() engine.Result {
	r.Selected = append([]int(nil), r.Selected...)
	return r
}
