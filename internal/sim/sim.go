// Package sim runs a closed-loop tomography deployment over a simulated
// network: each epoch the collector probes the currently selected paths,
// the aggregator accumulates surviving end-to-end measurements, the
// Boolean diagnoser localizes failures from the binary outcomes, and — in
// learning mode — the LSR learner updates its availability estimates and
// picks the next epoch's probing set.
//
// The collector is pluggable: the built-in in-process collector consults
// the epoch oracle directly, while agent.StreamNOC (TCP monitors)
// satisfies the same interface, so integration tests and the examples
// drive the very same loop over real sockets.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/bandit"
	"robusttomo/internal/diagnose"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/obs"
	"robusttomo/internal/selection"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// Collector gathers one epoch of measurements for the selected paths:
// the in-process oracle collector, or agent.StreamNOC over TCP monitors.
// The watermark-assembled epoch carries, besides the in-time
// measurements, the late results of earlier epochs that folded forward.
// The Runner folds those into the aggregator — they are real measurements
// of their origin epoch's network, so they sharpen the metric estimates —
// while the diagnoser and the learner see only the current epoch's
// in-time outcomes (a late result says nothing about which links are down
// now).
type Collector interface {
	CollectAssembled(ctx context.Context, epoch int, selected []int) (agent.AssembledEpoch, error)
}

var _ Collector = (*agent.StreamNOC)(nil)

// Mode selects how probing paths are chosen each epoch.
type Mode int

// Modes.
const (
	// Static probes a fixed ProbRoMe selection every epoch (known failure
	// distribution).
	Static Mode = iota + 1
	// Learning lets the LSR learner pick each epoch's paths (unknown
	// distribution).
	Learning
)

// Config parameterizes a Runner.
type Config struct {
	PM      *tomo.PathMatrix
	Costs   []float64
	Budget  float64
	Metrics []float64 // ground-truth link metrics
	// Failures draws the per-epoch failure process; the schedule for
	// Horizon epochs is fixed at construction so all components observe a
	// consistent network. A stateful failure.ScenarioSource is advanced
	// Horizon epochs by that draw; snapshot first to replay it elsewhere.
	Failures failure.Sampler
	// Scenario names a registered scenario source instead of handing one
	// in: when Failures is nil and Scenario is set, the source is built
	// via failure.NewSource — how config-file and job-service callers
	// pick a failure process.
	Scenario *failure.SourceSpec
	Horizon  int
	Mode     Mode
	// Model drives the ProbRoMe selection in Static mode; ignored in
	// Learning mode. When nil and the failure process is a
	// failure.ScenarioSource, the selection model is derived from the
	// source's stationary marginals — the correlation-blind view.
	Model *failure.Model
	Seed  uint64
	// Observer, when non-nil, receives loop metrics (epoch counts and
	// durations, degraded-epoch and lost-path totals, rank/survived/
	// identifiable gauges) and is forwarded to the selection greedy and —
	// in Learning mode — the LSR learner. A nil Observer leaves every
	// metric handle nil and the loop performs zero clock reads.
	Observer *obs.Registry
}

// CollectionHealth records how measurement collection went for one epoch.
// A degraded epoch is not an error: paths of unreachable monitors are
// treated as failed paths, and the surviving rows feed the same
// surviving-rank machinery as link failures.
type CollectionHealth struct {
	// Degraded reports whether any monitor delivered nothing this epoch.
	Degraded bool
	// FailedMonitors lists the monitors with no data, sorted by name.
	FailedMonitors []string
	// Attempts sums the connection attempts spent on failed monitors.
	Attempts int
	// LostPaths counts selected paths that produced no measurement
	// (collector-side loss, on top of network-side probe failures).
	LostPaths int
	// LateFolded counts late measurements from earlier epochs a streaming
	// collector delivered with this epoch, folded into the aggregator.
	LateFolded int
}

// EpochReport summarizes one epoch of the loop.
type EpochReport struct {
	Epoch        int
	Probed       int
	Survived     int
	Rank         int
	Identifiable int
	// Implicated lists links proven down by Boolean localization.
	Implicated []int
	// Collection records per-epoch measurement-plane health.
	Collection CollectionHealth
}

// Runner owns the loop state.
type Runner struct {
	cfg       Config
	oracle    *agent.EpochOracle
	collector Collector
	learner   *bandit.LSR
	agg       *tomo.Aggregator
	static    []int
	epoch     int
	m         *simMetrics
}

// New validates the configuration, fixes the failure schedule, and wires
// the default in-process collector.
func New(cfg Config) (*Runner, error) {
	if cfg.PM == nil {
		return nil, fmt.Errorf("sim: nil path matrix")
	}
	if len(cfg.Costs) != cfg.PM.NumPaths() {
		return nil, fmt.Errorf("sim: %d costs for %d paths", len(cfg.Costs), cfg.PM.NumPaths())
	}
	if len(cfg.Metrics) != cfg.PM.NumLinks() {
		return nil, fmt.Errorf("sim: %d metrics for %d links", len(cfg.Metrics), cfg.PM.NumLinks())
	}
	if cfg.Failures == nil && cfg.Scenario != nil {
		src, err := failure.NewSource(*cfg.Scenario)
		if err != nil {
			return nil, fmt.Errorf("sim: building scenario source: %w", err)
		}
		cfg.Failures = src
	}
	if cfg.Failures == nil {
		return nil, fmt.Errorf("sim: nil failure sampler")
	}
	if cfg.Failures.Links() != cfg.PM.NumLinks() {
		return nil, fmt.Errorf("sim: failure process covers %d links, matrix has %d", cfg.Failures.Links(), cfg.PM.NumLinks())
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %d", cfg.Horizon)
	}

	schedule := failure.SampleScenarios(cfg.Failures, stats.NewRNG(cfg.Seed, 0x51B), cfg.Horizon)
	oracle, err := agent.NewEpochOracle(cfg.Metrics, schedule)
	if err != nil {
		return nil, err
	}
	agg, err := tomo.NewAggregator(cfg.PM.NumPaths())
	if err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:       cfg,
		oracle:    oracle,
		collector: &localCollector{oracle: oracle, pm: cfg.PM},
		agg:       agg,
		m:         newSimMetrics(cfg.Observer),
	}

	switch cfg.Mode {
	case Static:
		if cfg.Model == nil {
			src, ok := cfg.Failures.(failure.ScenarioSource)
			if !ok {
				return nil, fmt.Errorf("sim: static mode needs a failure model")
			}
			m, err := failure.FromProbabilities(src.Marginals())
			if err != nil {
				return nil, fmt.Errorf("sim: deriving selection model from %s marginals: %w", src.SourceName(), err)
			}
			cfg.Model = m
		}
		opts := selection.NewOptions()
		opts.Observer = cfg.Observer
		res, err := selection.RoMe(cfg.PM, cfg.Costs, cfg.Budget,
			er.NewProbBoundInc(cfg.PM, cfg.Model), opts)
		if err != nil {
			return nil, err
		}
		r.static = res.Selected
	case Learning:
		learner, err := bandit.New(cfg.PM, cfg.Costs, cfg.Budget, bandit.Options{Observer: cfg.Observer})
		if err != nil {
			return nil, err
		}
		r.learner = learner
	default:
		return nil, fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}
	return r, nil
}

// Oracle exposes the fixed epoch oracle so TCP monitors can be wired to
// the same network state.
func (r *Runner) Oracle() *agent.EpochOracle { return r.oracle }

// UseCollector replaces the in-process collector (e.g. with an
// agent.StreamNOC fronting TCP monitors).
func (r *Runner) UseCollector(c Collector) error {
	if c == nil {
		return fmt.Errorf("sim: nil collector")
	}
	r.collector = c
	return nil
}

// localCollector consults the oracle directly, skipping the network.
type localCollector struct {
	oracle *agent.EpochOracle
	pm     *tomo.PathMatrix
}

func (lc *localCollector) CollectAssembled(_ context.Context, epoch int, selected []int) (agent.AssembledEpoch, error) {
	out := agent.AssembledEpoch{Epoch: epoch, Measurements: make([]agent.Measurement, 0, len(selected))}
	for _, p := range selected {
		if p < 0 || p >= lc.pm.NumPaths() {
			return agent.AssembledEpoch{}, fmt.Errorf("sim: path %d out of range", p)
		}
		v, ok := lc.oracle.Measure(epoch, lc.pm.EdgesOf(p))
		m := agent.Measurement{PathID: p, OK: ok}
		if ok {
			m.Value = v
		}
		out.Measurements = append(out.Measurements, m)
	}
	return out, nil
}

// Step runs one epoch and returns its report.
func (r *Runner) Step(ctx context.Context) (EpochReport, error) {
	if r.epoch >= r.cfg.Horizon {
		return EpochReport{}, fmt.Errorf("sim: horizon %d exhausted", r.cfg.Horizon)
	}
	var stepStart time.Time
	if r.m.epochSeconds != nil {
		stepStart = time.Now()
	}
	var selected []int
	var err error
	if r.learner != nil {
		selected, err = r.learner.SelectAction()
		if err != nil {
			return EpochReport{}, err
		}
	} else {
		selected = r.static
	}

	out, err := r.collector.CollectAssembled(ctx, r.epoch, selected)
	ms, late := out.Measurements, out.Late
	var cerr *agent.CollectionError
	if err != nil && !errors.As(err, &cerr) {
		// A partially collected epoch degrades instead of aborting: the
		// paths of unreachable monitors become failed paths, absorbed by
		// the same surviving-rank machinery as link failures. Anything
		// other than a *agent.CollectionError stays fatal.
		return EpochReport{}, err
	}

	report := EpochReport{Epoch: r.epoch, Probed: len(selected)}
	ob := diagnose.Observation{}
	avail := make([]bool, r.cfg.PM.NumPaths())
	measured := make(map[int]bool, len(ms))
	var surviving []int
	for _, m := range ms {
		measured[m.PathID] = true
		ob.Paths = append(ob.Paths, m.PathID)
		ob.OK = append(ob.OK, m.OK)
		if m.OK {
			avail[m.PathID] = true
			surviving = append(surviving, m.PathID)
			if err := r.agg.Observe(m.PathID, m.Value); err != nil {
				return EpochReport{}, err
			}
		}
	}
	if cerr != nil {
		report.Collection.Degraded = true
		report.Collection.FailedMonitors = cerr.FailedMonitors()
		for _, o := range cerr.Outcomes {
			report.Collection.Attempts += o.Attempts
		}
		// Selected paths that produced no measurement read as failed
		// paths: the learner and the Boolean diagnoser observe them down.
		for _, p := range selected {
			if !measured[p] {
				report.Collection.LostPaths++
				ob.Paths = append(ob.Paths, p)
				ob.OK = append(ob.OK, false)
			}
		}
		r.m.degradedEpochs.Inc()
		r.m.lostPaths.Add(uint64(report.Collection.LostPaths))
	}
	// Late measurements are genuine observations of their origin epoch's
	// network: fold the successful ones into the aggregator (sharper
	// metric estimates) but keep them away from the diagnoser and learner,
	// whose observations are strictly per-current-epoch.
	for _, lm := range late {
		if !lm.OK || lm.PathID < 0 || lm.PathID >= r.cfg.PM.NumPaths() {
			continue
		}
		if err := r.agg.Observe(lm.PathID, lm.Value); err != nil {
			return EpochReport{}, err
		}
		report.Collection.LateFolded++
	}
	if report.Collection.LateFolded > 0 {
		r.m.lateFolded.Add(uint64(report.Collection.LateFolded))
	}
	report.Survived = len(surviving)
	report.Rank, report.Identifiable = r.cfg.PM.RankAndIdentifiable(surviving)

	if r.learner != nil {
		if _, err := r.learner.Observe(selected, avail); err != nil {
			return EpochReport{}, err
		}
	}

	diag, err := diagnose.Localize(r.cfg.PM, ob)
	if err != nil {
		return EpochReport{}, err
	}
	for l, down := range diag.Implicated {
		if down {
			report.Implicated = append(report.Implicated, l)
		}
	}

	r.epoch++
	r.m.epochs.Inc()
	r.m.rank.Set(float64(report.Rank))
	r.m.survived.Set(float64(report.Survived))
	r.m.identifiable.Set(float64(report.Identifiable))
	if r.m.epochSeconds != nil {
		r.m.epochSeconds.Observe(time.Since(stepStart).Seconds())
	}
	return report, nil
}

// Run executes n epochs (bounded by the horizon) and returns their
// reports.
func (r *Runner) Run(ctx context.Context, n int) ([]EpochReport, error) {
	reports := make([]EpochReport, 0, n)
	for i := 0; i < n; i++ {
		rep, err := r.Step(ctx)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// Estimates solves the aggregated measurement system and returns the
// inferred link metrics with their identifiability mask. minSamples
// controls how many epochs a path must have survived to contribute; tol
// reconciles cross-epoch noise (use a small value like 1e-6 for noiseless
// simulations). A non-finite mean, from a monitor that reported NaN or
// ±Inf, is an error.
func (r *Runner) Estimates(minSamples int, tol float64) (values []float64, ident []bool, err error) {
	idx, y := r.agg.SystemInputs(minSamples)
	sys, err := tomo.NewSystemTol(r.cfg.PM, idx, y, tol)
	if err != nil {
		return nil, nil, err
	}
	return sys.Solve()
}

// Learner exposes the LSR learner in Learning mode (nil in Static mode).
func (r *Runner) Learner() *bandit.LSR { return r.learner }

// StaticSelection returns the fixed probing set in Static mode.
func (r *Runner) StaticSelection() []int {
	out := make([]int, len(r.static))
	copy(out, r.static)
	return out
}
