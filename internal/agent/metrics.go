package agent

import (
	"robusttomo/internal/obs"
)

// batchSizeBuckets grades batch-frame path counts: probe batches run from a
// single path up to the whole panel share of one monitor.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// streamMetrics holds the NOC's pre-interned instrument handles. With no
// observer registry installed every field is nil, and each update is the
// obs package's single nil check — the collection hot path never branches
// on a registry pointer or allocates for observability.
type streamMetrics struct {
	reg *obs.Registry

	// dialSeconds times one TCP dial attempt (success or failure).
	dialSeconds *obs.Histogram
	// attempts counts connect+send attempts; retries counts the attempts
	// beyond the first per monitor-epoch.
	attempts *obs.Counter
	retries  *obs.Counter
	// circuitDenied counts attempts rejected by an open breaker.
	circuitDenied *obs.Counter
	// epochs / degradedEpochs / lostPaths summarize collection outcomes;
	// lostPaths counts selected paths that produced no measurement because
	// their monitor delivered nothing (the partial-epoch currency).
	epochs         *obs.Counter
	degradedEpochs *obs.Counter
	lostPaths      *obs.Counter
	// breakerState is a per-monitor gauge of the circuit-breaker state
	// (0 closed, 1 open, 2 half-open), pre-interned per monitor at NOC
	// construction.
	breakerState *obs.GaugeVec

	// framesSent / framesReceived count batch frames on the wire in each
	// direction (one probe batch out, one result batch back per
	// monitor-epoch in the common case).
	framesSent     *obs.Counter
	framesReceived *obs.Counter
	// batchPaths records how many paths each sent probe batch carried.
	batchPaths *obs.Histogram
	// watermarkLag records how far behind its epoch's seal a late result
	// arrived (observed only for epochs whose seal time is still tracked).
	watermarkLag *obs.Histogram
	// lateResults / duplicateResults / foreignResults / lateDropped count
	// assembler routing outcomes; backpressureDrops counts probe batches
	// rejected because a shard's send queue was full.
	lateResults       *obs.Counter
	duplicateResults  *obs.Counter
	foreignResults    *obs.Counter
	lateDropped       *obs.Counter
	backpressureDrops *obs.Counter
	// watermarkMissed counts monitor-epochs sealed with outstanding paths.
	watermarkMissed *obs.Counter
	// queueDepth is the per-shard send-queue depth at the last enqueue or
	// dequeue.
	queueDepth *obs.GaugeVec
}

// newStreamMetrics registers the collection plane's metric families. A nil
// registry yields all-nil handles (the unobserved mode).
func newStreamMetrics(reg *obs.Registry) *streamMetrics {
	return &streamMetrics{
		reg: reg,
		dialSeconds: reg.Histogram("tomo_agent_dial_seconds",
			"Latency of one TCP dial attempt to a monitor.", obs.DefBuckets),
		attempts: reg.Counter("tomo_agent_attempts_total",
			"Connect+send attempts across all monitors."),
		retries: reg.Counter("tomo_agent_retries_total",
			"Attempts beyond the first within one monitor-epoch."),
		circuitDenied: reg.Counter("tomo_agent_circuit_denied_total",
			"Attempts rejected because a monitor's circuit breaker was open."),
		epochs: reg.Counter("tomo_agent_epochs_total",
			"Epoch collections."),
		degradedEpochs: reg.Counter("tomo_agent_degraded_epochs_total",
			"Epochs in which at least one monitor delivered nothing."),
		lostPaths: reg.Counter("tomo_agent_lost_paths_total",
			"Selected paths that produced no measurement due to monitor failure."),
		breakerState: reg.GaugeVec("tomo_agent_breaker_state",
			"Per-monitor circuit-breaker state: 0 closed, 1 open, 2 half-open.", "monitor"),
		framesSent: reg.Counter("tomo_stream_frames_sent_total",
			"Probe batch frames written to monitor transports."),
		framesReceived: reg.Counter("tomo_stream_frames_received_total",
			"Result batch frames read from monitor transports."),
		batchPaths: reg.Histogram("tomo_stream_batch_paths",
			"Paths carried per sent probe batch frame.", batchSizeBuckets),
		watermarkLag: reg.Histogram("tomo_stream_watermark_lag_seconds",
			"Arrival lag of late results behind their epoch's seal.", obs.DefBuckets),
		lateResults: reg.Counter("tomo_stream_late_results_total",
			"Results that arrived after their epoch sealed (folded forward)."),
		duplicateResults: reg.Counter("tomo_stream_duplicate_results_total",
			"Results discarded by first-wins dedup."),
		foreignResults: reg.Counter("tomo_stream_foreign_results_total",
			"Results dropped because their path was not probed in that epoch."),
		lateDropped: reg.Counter("tomo_stream_late_dropped_total",
			"Late results dropped because the late buffer was full."),
		backpressureDrops: reg.Counter("tomo_stream_backpressure_drops_total",
			"Probe batches rejected because a shard send queue was full."),
		watermarkMissed: reg.Counter("tomo_stream_watermark_missed_total",
			"Monitor-epochs sealed with outstanding paths at the watermark."),
		queueDepth: reg.GaugeVec("tomo_stream_queue_depth",
			"Send-queue depth per shard.", "shard"),
	}
}
