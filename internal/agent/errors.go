package agent

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors for the collection subsystem. Every error returned by
// the agent package wraps one of these (possibly through a
// *CollectionError), so callers dispatch with errors.Is/errors.As instead
// of string matching.
var (
	// ErrMonitorUnreachable marks a monitor the NOC could not collect from
	// this epoch: dial failures, mid-stream resets, protocol garbage and
	// I/O timeouts all wrap it once the retry budget is exhausted.
	ErrMonitorUnreachable = errors.New("agent: monitor unreachable")
	// ErrUnknownMonitor marks a path whose SourceOf monitor has no
	// registered address — a wiring bug, reported for the whole epoch.
	ErrUnknownMonitor = errors.New("agent: unknown monitor")
	// ErrPathOutOfRange marks a selected path index outside the path
	// matrix — a wiring bug, reported for the whole epoch.
	ErrPathOutOfRange = errors.New("agent: path out of range")
	// ErrCircuitOpen marks a monitor skipped because its circuit breaker
	// is open (cooling down after repeated failures).
	ErrCircuitOpen = errors.New("agent: circuit open")
	// ErrWatermark marks paths whose monitor did not answer before the
	// collector's watermark elapsed; the epoch sealed without them (their
	// results, if they ever arrive, fold into a later epoch as
	// LateMeasurements). Watermark outcomes wrap both this and
	// ErrMonitorUnreachable, so one errors.Is check covers every way a
	// monitor can fail to deliver.
	ErrWatermark = errors.New("agent: watermark elapsed")
	// ErrBackpressure marks probe batches the collector dropped
	// because the owning shard's send queue was full — the collection plane
	// sheds load instead of stalling the epoch loop.
	ErrBackpressure = errors.New("agent: shard backpressure")
)

// MonitorOutcome records how collection went for one monitor in one epoch.
type MonitorOutcome struct {
	// Monitor is the monitor's registered name.
	Monitor string
	// Paths are the selected paths assigned to this monitor this epoch.
	Paths []int
	// Attempts counts the connect+send attempts actually performed (zero
	// when the breaker was open before the first attempt).
	Attempts int
	// Err is the last error observed, wrapping ErrMonitorUnreachable or
	// ErrCircuitOpen; nil for a successful monitor.
	Err error
	// Breaker is the monitor's breaker state after the epoch.
	Breaker BreakerState
}

// CollectionError reports a partially failed epoch: some monitors did not
// deliver measurements. CollectEpoch returns it alongside the measurements
// it did collect, so callers degrade instead of dropping the epoch.
//
// Unwrap exposes every per-monitor error, so errors.Is(err,
// agent.ErrMonitorUnreachable) and errors.Is(err, agent.ErrCircuitOpen)
// work through a *CollectionError.
type CollectionError struct {
	// Epoch is the epoch being collected.
	Epoch int
	// Outcomes holds one entry per failed monitor, sorted by monitor name.
	Outcomes []MonitorOutcome
}

// Error implements error.
func (e *CollectionError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "agent: epoch %d: %d monitor(s) failed:", e.Epoch, len(e.Outcomes))
	for _, o := range e.Outcomes {
		fmt.Fprintf(&b, " %s(paths=%d attempts=%d: %v)", o.Monitor, len(o.Paths), o.Attempts, o.Err)
	}
	return b.String()
}

// Unwrap returns every failed monitor's error, enabling errors.Is/As
// through the collection error.
func (e *CollectionError) Unwrap() []error {
	errs := make([]error, 0, len(e.Outcomes))
	for _, o := range e.Outcomes {
		if o.Err != nil {
			errs = append(errs, o.Err)
		}
	}
	return errs
}

// FailedMonitors returns the names of the monitors that delivered nothing
// this epoch, in sorted order.
func (e *CollectionError) FailedMonitors() []string {
	names := make([]string, len(e.Outcomes))
	for i, o := range e.Outcomes {
		names[i] = o.Monitor
	}
	return names
}

// LostPaths returns the selected paths that produced no measurement this
// epoch, across all failed monitors.
func (e *CollectionError) LostPaths() []int {
	var out []int
	for _, o := range e.Outcomes {
		out = append(out, o.Paths...)
	}
	return out
}
