package sim

import (
	"robusttomo/internal/obs"
)

// simMetrics holds the closed loop's pre-interned instrument handles. With
// no observer registry every field is nil and each update is the obs
// package's single nil check; the epoch timer additionally guards its
// time.Now() reads so unobserved loops perform zero clock calls.
type simMetrics struct {
	reg *obs.Registry

	// epochs counts completed Step calls; degradedEpochs the subset whose
	// collection was partial; lostPaths the selected paths that produced no
	// measurement across those epochs, plus the non-finite samples dropped
	// in any epoch.
	epochs         *obs.Counter
	degradedEpochs *obs.Counter
	lostPaths      *obs.Counter
	// epochSeconds times one full Step (selection, collection, diagnosis,
	// learner update).
	epochSeconds *obs.Histogram
	// lateFolded counts late measurements from earlier epochs folded into
	// the aggregator.
	lateFolded *obs.Counter
	// rank / survived / identifiable snapshot the most recent epoch's
	// surviving-path rank, surviving-path count and identifiable-link
	// count.
	rank         *obs.Gauge
	survived     *obs.Gauge
	identifiable *obs.Gauge
}

// epochBuckets suits epoch durations, which span microseconds (in-process
// collector, tiny instances) to seconds (TCP monitors with retries).
var epochBuckets = obs.ExponentialBuckets(1e-5, 4, 10)

// newSimMetrics registers the loop metric families on reg; a nil registry
// yields all-nil handles (the unobserved mode).
func newSimMetrics(reg *obs.Registry) *simMetrics {
	return &simMetrics{
		reg: reg,
		epochs: reg.Counter("tomo_sim_epochs_total",
			"Completed closed-loop epochs."),
		degradedEpochs: reg.Counter("tomo_sim_degraded_epochs_total",
			"Epochs absorbed with partial measurement collection."),
		lostPaths: reg.Counter("tomo_sim_lost_paths_total",
			"Selected paths that produced no measurement (collector-side loss), plus dropped non-finite samples."),
		lateFolded: reg.Counter("tomo_sim_late_folded_total",
			"Late measurements from earlier epochs folded into the aggregator."),
		epochSeconds: reg.Histogram("tomo_sim_epoch_seconds",
			"Duration of one full closed-loop epoch.", epochBuckets),
		rank: reg.Gauge("tomo_sim_rank",
			"Surviving-path rank of the most recent epoch."),
		survived: reg.Gauge("tomo_sim_survived",
			"Surviving (probed and available) paths in the most recent epoch."),
		identifiable: reg.Gauge("tomo_sim_identifiable",
			"Identifiable links in the most recent epoch."),
	}
}
