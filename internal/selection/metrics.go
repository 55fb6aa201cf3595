package selection

import (
	"time"

	"robusttomo/internal/obs"
)

// selMetrics holds the greedy's pre-interned instrument handles. With no
// observer registry every field is nil and each update is the obs
// package's single nil check; timing code additionally guards the
// time.Now() reads so unobserved runs perform zero clock calls.
// Instrumentation never influences the selection itself: the recorded
// values are read off the Result the greedy already computed.
type selMetrics struct {
	// runs counts completed RoMe runs (error exits are not counted).
	runs *obs.Counter
	// gainEvals mirrors Result.GainEvaluations, accumulated across runs.
	gainEvals *obs.Counter
	// runSeconds times one full RoMe call; iterSeconds times each committed
	// greedy iteration (from the previous commit, or the run start, to the
	// oracle.Add).
	runSeconds  *obs.Histogram
	iterSeconds *obs.Histogram
}

// noSelMetrics is the shared all-nil handle set, so unobserved runs skip
// even the struct allocation.
var noSelMetrics = &selMetrics{}

// iterBuckets suits greedy iterations, which run from microseconds (tiny
// ProbBound instances) to seconds (large Monte Carlo oracles).
var iterBuckets = obs.ExponentialBuckets(1e-6, 4, 12)

// newSelMetrics registers the selection metric families on reg; a nil
// registry returns the shared all-nil handle set.
func newSelMetrics(reg *obs.Registry) *selMetrics {
	if reg == nil {
		return noSelMetrics
	}
	return &selMetrics{
		runs: reg.Counter("tomo_selection_runs_total",
			"Completed RoMe greedy runs."),
		gainEvals: reg.Counter("tomo_selection_gain_evaluations_total",
			"Oracle gain evaluations, matching Result.GainEvaluations."),
		runSeconds: reg.Histogram("tomo_selection_run_seconds",
			"Duration of one full RoMe run.", iterBuckets),
		iterSeconds: reg.Histogram("tomo_selection_iteration_seconds",
			"Duration of one committed greedy iteration.", iterBuckets),
	}
}

// record accounts one completed run. res is the Result being returned to
// the caller, runStart the time.Now() captured at entry when observed
// (zero otherwise).
func (m *selMetrics) record(res *Result, runStart time.Time) {
	m.runs.Inc()
	m.gainEvals.Add(uint64(res.GainEvaluations))
	if m.runSeconds != nil {
		m.runSeconds.Observe(time.Since(runStart).Seconds())
	}
}
