package agent

import (
	"errors"
	"fmt"
	"testing"
)

// sentinels is the complete set the collection plane wraps.
var sentinels = []struct {
	name string
	err  error
}{
	{"ErrMonitorUnreachable", ErrMonitorUnreachable},
	{"ErrUnknownMonitor", ErrUnknownMonitor},
	{"ErrPathOutOfRange", ErrPathOutOfRange},
	{"ErrCircuitOpen", ErrCircuitOpen},
}

// TestCollectionErrorUnwrapMultiError pins the Unwrap() []error contract:
// errors.Is reaches every per-monitor chain through the aggregate, for
// each of the four sentinels, including sentinels buried one fmt.Errorf
// layer deep inside an outcome.
func TestCollectionErrorUnwrapMultiError(t *testing.T) {
	for _, s := range sentinels {
		t.Run(s.name, func(t *testing.T) {
			cerr := &CollectionError{
				Epoch: 3,
				Outcomes: []MonitorOutcome{
					{Monitor: "a", Err: fmt.Errorf("%w: monitor a details", s.err)},
					{Monitor: "b", Err: fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", errors.New("unrelated")))},
				},
			}
			if !errors.Is(cerr, s.err) {
				t.Fatalf("errors.Is(cerr, %s) = false", s.name)
			}
			// The aggregate must not claim sentinels it does not carry.
			for _, other := range sentinels {
				if other.err == s.err {
					continue
				}
				if errors.Is(cerr, other.err) {
					t.Fatalf("errors.Is(cerr, %s) = true, only %s is wrapped", other.name, s.name)
				}
			}
		})
	}
}

// TestCollectionErrorThroughFmtErrorf walks the aggregate itself wrapped
// inside fmt.Errorf chains: both errors.Is (sentinel at the leaves) and
// errors.As (*CollectionError in the middle) must traverse.
func TestCollectionErrorThroughFmtErrorf(t *testing.T) {
	cerr := &CollectionError{
		Epoch: 7,
		Outcomes: []MonitorOutcome{
			{Monitor: "m1", Err: fmt.Errorf("%w: m1 gone", ErrMonitorUnreachable)},
			{Monitor: "m2", Err: fmt.Errorf("wrapped: %w", fmt.Errorf("%w: m2 cooling", ErrCircuitOpen))},
		},
	}
	wrapped := fmt.Errorf("epoch step: %w", fmt.Errorf("collect: %w", cerr))

	if !errors.Is(wrapped, ErrMonitorUnreachable) {
		t.Fatal("ErrMonitorUnreachable not reachable through the fmt.Errorf chain")
	}
	if !errors.Is(wrapped, ErrCircuitOpen) {
		t.Fatal("ErrCircuitOpen not reachable through a doubly wrapped outcome")
	}
	if errors.Is(wrapped, ErrPathOutOfRange) || errors.Is(wrapped, ErrUnknownMonitor) {
		t.Fatal("wiring-bug sentinels matched without being wrapped")
	}

	var got *CollectionError
	if !errors.As(wrapped, &got) {
		t.Fatal("errors.As did not recover the *CollectionError")
	}
	if got.Epoch != 7 || len(got.Outcomes) != 2 {
		t.Fatalf("recovered %+v", got)
	}
}

// TestCollectionErrorUnwrapSkipsNilOutcomes pins that outcomes recorded
// without an error (possible when a caller assembles outcomes by hand)
// do not inject nil into the unwrap list, which would panic errors.Is.
func TestCollectionErrorUnwrapSkipsNilOutcomes(t *testing.T) {
	cerr := &CollectionError{
		Outcomes: []MonitorOutcome{
			{Monitor: "ok", Err: nil},
			{Monitor: "bad", Err: fmt.Errorf("%w: bad", ErrMonitorUnreachable)},
		},
	}
	errs := cerr.Unwrap()
	if len(errs) != 1 {
		t.Fatalf("Unwrap returned %d errors, want 1", len(errs))
	}
	if !errors.Is(cerr, ErrMonitorUnreachable) {
		t.Fatal("sentinel lost")
	}
}

// TestCollectionErrorAllSentinelsAtOnce exercises the multi-error fanout:
// one aggregate carrying all four sentinels answers errors.Is for each.
func TestCollectionErrorAllSentinelsAtOnce(t *testing.T) {
	outcomes := make([]MonitorOutcome, len(sentinels))
	for i, s := range sentinels {
		outcomes[i] = MonitorOutcome{
			Monitor: fmt.Sprintf("m%d", i),
			Err:     fmt.Errorf("layer: %w", fmt.Errorf("%w: detail", s.err)),
		}
	}
	cerr := &CollectionError{Outcomes: outcomes}
	for _, s := range sentinels {
		if !errors.Is(cerr, s.err) {
			t.Fatalf("errors.Is(cerr, %s) = false", s.name)
		}
	}
}
