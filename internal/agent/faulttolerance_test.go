package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
)

// faultNOC builds a NOC for the fault-injection tests: a short watermark,
// so an epoch that loses an answer seals quickly, and Close on cleanup.
func faultNOC(t *testing.T, cfg StreamConfig) *StreamNOC {
	t.Helper()
	if cfg.Watermark == 0 {
		cfg.Watermark = 300 * time.Millisecond
	}
	noc, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { noc.Close() })
	return noc
}

// twoLinkPM builds a 2-path/2-link matrix: path 0 over link 0 (source
// monitor "a"), path 1 over link 1 (source monitor "b").
func twoLinkPM(t *testing.T) *tomo.PathMatrix {
	t.Helper()
	paths := []routing.Path{
		{Src: 0, Dst: 1, Edges: []graph.EdgeID{0}},
		{Src: 2, Dst: 3, Edges: []graph.EdgeID{1}},
	}
	pm, err := tomo.NewPathMatrix(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func sourceAB(pm *tomo.PathMatrix) func(int) string {
	return func(p int) string {
		if pm.Path(p).Src == 0 {
			return "a"
		}
		return "b"
	}
}

// faultyMonitor starts one monitor behind a scripted FaultyListener.
func faultyMonitor(t *testing.T, name string, oracle LinkOracle, script ...ConnFault) (*Monitor, *FaultyListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFaultyListener(ln, script...)
	m, err := StartMonitorOn(name, fl, oracle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, fl
}

func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(BreakerPolicy{FailureThreshold: 2, Cooldown: time.Minute})
	b.now = func() time.Time { return clock }

	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state %v", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected an attempt")
	}
	b.failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 1 failure = %v", got)
	}
	b.failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v", got)
	}
	if b.allow() {
		t.Fatal("open breaker admitted an attempt before cooldown")
	}

	clock = clock.Add(time.Minute)
	if !b.allow() {
		t.Fatal("cooldown elapsed but no half-open probe admitted")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown allow = %v", got)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: back to open, cooldown restarts.
	b.failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed half-open probe = %v", got)
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted an attempt immediately")
	}

	// Second probe succeeds: closed, and failures must re-accumulate from
	// scratch.
	clock = clock.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second half-open probe rejected")
	}
	b.success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v", got)
	}
	b.failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("single failure after recovery tripped the breaker: %v", got)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour, Disabled: true})
	for i := 0; i < 5; i++ {
		if !b.allow() {
			t.Fatal("disabled breaker rejected an attempt")
		}
		b.failure()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("disabled breaker state = %v", got)
	}
}

func TestCollectEpochSentinelErrors(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, err := NewEpochOracle([]float64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := faultyMonitor(t, "a", oracle)
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": "127.0.0.1:1"}, // b is dead
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 2},
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
	})
	ctx := context.Background()

	if _, err := noc.CollectEpoch(ctx, 0, []int{99}); !errors.Is(err, ErrPathOutOfRange) {
		t.Fatalf("out-of-range path: err = %v, want ErrPathOutOfRange", err)
	}

	ghostNoc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr()},
		SourceOf: func(int) string { return "ghost" },
	})
	if _, err := ghostNoc.CollectEpoch(ctx, 0, []int{0}); !errors.Is(err, ErrUnknownMonitor) {
		t.Fatalf("unknown monitor: err = %v, want ErrUnknownMonitor", err)
	}

	// Dead monitor b: partial epoch, typed error, a's data intact.
	ms, err := noc.CollectEpoch(ctx, 0, []int{0, 1})
	if err == nil {
		t.Fatal("dead monitor produced no error")
	}
	if !errors.Is(err, ErrMonitorUnreachable) {
		t.Fatalf("err = %v, want ErrMonitorUnreachable in chain", err)
	}
	var cerr *CollectionError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %T, want *CollectionError", err)
	}
	if got := cerr.FailedMonitors(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("FailedMonitors = %v", got)
	}
	if got := cerr.LostPaths(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("LostPaths = %v", got)
	}
	if cerr.Outcomes[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", cerr.Outcomes[0].Attempts)
	}
	if len(ms) != 1 || ms[0].PathID != 0 || !ms[0].OK || ms[0].Value != 1 {
		t.Fatalf("surviving measurements = %+v", ms)
	}

	// Force the breaker open and check the circuit sentinel surfaces.
	openNoc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": "127.0.0.1:1"},
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 1},
		Breaker:  BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour},
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
	})
	if _, err := openNoc.CollectEpoch(ctx, 0, []int{1}); !errors.Is(err, ErrMonitorUnreachable) {
		t.Fatalf("first epoch: %v", err)
	}
	if _, err := openNoc.CollectEpoch(ctx, 1, []int{1}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second epoch: err = %v, want ErrCircuitOpen", err)
	}
}

func TestCollectEpochOneOfThreeDead(t *testing.T) {
	// Three monitors, three paths; monitor "m1" is killed before the
	// epoch. CollectEpoch must return the other monitors' measurements and
	// a typed *CollectionError, not a bare failure.
	paths := []routing.Path{
		{Src: 0, Dst: 9, Edges: []graph.EdgeID{0}},
		{Src: 1, Dst: 9, Edges: []graph.EdgeID{1}},
		{Src: 2, Dst: 9, Edges: []graph.EdgeID{2}},
	}
	pm, err := tomo.NewPathMatrix(paths, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEpochOracle([]float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"m0", "m1", "m2"}
	addrs := map[string]string{}
	mons := map[string]*Monitor{}
	for _, name := range names {
		m, err := StartMonitor(name, "127.0.0.1:0", oracle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		addrs[name] = m.Addr()
		mons[name] = m
	}
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: addrs,
		SourceOf: func(p int) string { return names[pm.Path(p).Src] },
		Retry:    RetryPolicy{MaxAttempts: 2},
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
	})

	if err := mons["m1"].Close(); err != nil {
		t.Fatal(err)
	}

	ms, err := noc.CollectEpoch(context.Background(), 0, []int{0, 1, 2})
	var cerr *CollectionError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v (%T), want *CollectionError", err, err)
	}
	if got := cerr.FailedMonitors(); len(got) != 1 || got[0] != "m1" {
		t.Fatalf("FailedMonitors = %v", got)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %+v, want paths 0 and 2", ms)
	}
	want := map[int]float64{0: 1, 2: 3}
	for _, m := range ms {
		if !m.OK || math.Abs(m.Value-want[m.PathID]) > 1e-9 {
			t.Fatalf("measurement %+v", m)
		}
	}
}

func TestRetryRecoversFromRefusedDials(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, _ := NewEpochOracle([]float64{1, 2}, nil)
	ma, _ := faultyMonitor(t, "a", oracle)
	mb, _ := faultyMonitor(t, "b", oracle)

	// First two dials are refused by script; the third goes through. With
	// MaxAttempts 3 the epoch must succeed in full.
	dialer := NewFaultyDialer(nil, DialFault{Refuse: true}, DialFault{Refuse: true})
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": mb.Addr()},
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 3},
		Dial:     dialer.DialContext,
	})

	ms, err := noc.CollectEpoch(context.Background(), 0, []int{0})
	if err != nil {
		t.Fatalf("epoch failed despite retry budget: %v", err)
	}
	if len(ms) != 1 || !ms[0].OK || ms[0].Value != 1 {
		t.Fatalf("measurements = %+v", ms)
	}
	if got := dialer.Dials(); got != 3 {
		t.Fatalf("dials = %d, want 3 (2 refused + 1 clean)", got)
	}

	// Bounded attempts: with the script refusing more than the budget, the
	// epoch degrades after exactly MaxAttempts dials.
	dialer2 := NewFaultyDialer(nil,
		DialFault{Refuse: true}, DialFault{Refuse: true}, DialFault{Refuse: true},
		DialFault{Refuse: true}, DialFault{Refuse: true})
	noc2 := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": mb.Addr()},
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 2},
		Dial:     dialer2.DialContext,
	})
	_, err = noc2.CollectEpoch(context.Background(), 0, []int{0})
	var cerr *CollectionError
	if !errors.As(err, &cerr) || cerr.Outcomes[0].Attempts != 2 {
		t.Fatalf("err = %v, want CollectionError with 2 attempts", err)
	}
	if got := dialer2.Dials(); got != 2 {
		t.Fatalf("dials = %d, want exactly MaxAttempts", got)
	}
}

func TestDeadMonitorMidEpochRecovers(t *testing.T) {
	// Three sessions share one connection. The monitor answers one batch,
	// then resets mid-epoch with the other two in flight; the NOC resends
	// them on a redialed connection and the epoch completes in full.
	paths := []routing.Path{
		{Src: 0, Dst: 9, Edges: []graph.EdgeID{0}},
		{Src: 0, Dst: 9, Edges: []graph.EdgeID{1}},
		{Src: 0, Dst: 9, Edges: []graph.EdgeID{2}},
	}
	pm, err := tomo.NewPathMatrix(paths, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := NewEpochOracle([]float64{1, 2, 3}, nil)
	ma, fl := faultyMonitor(t, "a", oracle, ConnFault{ServeReplies: 1})
	names := []string{"a", "b", "c"}
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": ma.Addr(), "c": ma.Addr()},
		SourceOf: func(p int) string { return names[p] },
		Shards:   1, // one shard, so the three sessions share one connection
		Retry:    RetryPolicy{MaxAttempts: 3},
	})

	ms, err := noc.CollectEpoch(context.Background(), 0, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("epoch failed: %v", err)
	}
	if len(ms) != 3 {
		t.Fatalf("measurements = %+v", ms)
	}
	for i, m := range ms {
		if !m.OK || math.Abs(m.Value-float64(i+1)) > 1e-9 {
			t.Fatalf("measurement %+v", m)
		}
	}
	if got := fl.Accepted(); got != 2 {
		t.Fatalf("connections = %d, want 2 (reset + retry)", got)
	}
}

func TestGarbageFramesAreRetried(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, _ := NewEpochOracle([]float64{5, 6}, nil)
	ma, fl := faultyMonitor(t, "a", oracle, ConnFault{GarbageReplies: 1})
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": ma.Addr()},
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 2},
	})

	ms, err := noc.CollectEpoch(context.Background(), 0, []int{0})
	if err != nil {
		t.Fatalf("epoch failed after garbage frame: %v", err)
	}
	if len(ms) != 1 || !ms[0].OK || ms[0].Value != 5 {
		t.Fatalf("measurements = %+v", ms)
	}
	if got := fl.Accepted(); got != 2 {
		t.Fatalf("connections = %d, want 2 (garbage + clean retry)", got)
	}
}

// TestBreakerCountsFailedAttempts: the breaker threshold counts failed
// send attempts, not failed epochs. With two attempts per epoch and a
// threshold of three (the tomo CLI defaults), a dead monitor's breaker
// opens on the first attempt of its second epoch, and the second attempt
// is denied.
func TestBreakerCountsFailedAttempts(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, _ := NewEpochOracle([]float64{1, 2}, nil)
	ma, _ := faultyMonitor(t, "a", oracle)
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": "127.0.0.1:1"}, // b is dead
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 2},
		Breaker:  BreakerPolicy{FailureThreshold: 3, Cooldown: time.Hour},
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
	})
	ctx := context.Background()

	_, err := noc.CollectEpoch(ctx, 0, []int{0, 1})
	var cerr *CollectionError
	if !errors.As(err, &cerr) {
		t.Fatalf("epoch 0: err = %v, want *CollectionError", err)
	}
	if o := cerr.Outcomes[0]; o.Attempts != 2 || o.Breaker != BreakerClosed {
		t.Fatalf("epoch 0: outcome %+v, want 2 attempts with the breaker still closed", o)
	}
	_, err = noc.CollectEpoch(ctx, 1, []int{0, 1})
	if !errors.As(err, &cerr) || !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("epoch 1: err = %v, want ErrCircuitOpen", err)
	}
	if o := cerr.Outcomes[0]; o.Attempts != 1 || o.Breaker != BreakerOpen {
		t.Fatalf("epoch 1: outcome %+v, want the third failed attempt to open the breaker", o)
	}
}

// TestBreakerLifecycle walks the acceptance scenario end to end: the
// breaker demonstrably opens after the configured threshold of failed
// epochs, fast-fails with ErrCircuitOpen while open, and closes again
// after the monitor restarts on the same address and the cooldown elapses.
func TestBreakerLifecycle(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, _ := NewEpochOracle([]float64{1, 2}, nil)
	ma, _ := faultyMonitor(t, "a", oracle)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := StartMonitorOn("b", ln, oracle)
	if err != nil {
		t.Fatal(err)
	}
	addrB := mb.Addr()

	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": addrB},
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 1}, // one attempt per epoch: exact failure counting
		Breaker:  BreakerPolicy{FailureThreshold: 2, Cooldown: time.Minute},
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
	})
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	noc.setClock(func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock })
	advance := func(d time.Duration) { clockMu.Lock(); clock = clock.Add(d); clockMu.Unlock() }
	ctx := context.Background()

	// Healthy epoch first: breaker closed, persistent session established.
	if ms, err := noc.CollectEpoch(ctx, 0, []int{0, 1}); err != nil || len(ms) != 2 {
		t.Fatalf("healthy epoch: ms=%v err=%v", ms, err)
	}
	if st := noc.BreakerStates()["b"]; st != BreakerClosed {
		t.Fatalf("breaker after healthy epoch = %v", st)
	}

	// Kill b. Two epochs of failures trip the breaker: each is either a
	// refused redial or a probe written into the dead connection, which
	// comes back unanswered when the connection drops with the retry
	// budget spent; both wrap ErrMonitorUnreachable.
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 2; e++ {
		_, err := noc.CollectEpoch(ctx, e, []int{0, 1})
		if !errors.Is(err, ErrMonitorUnreachable) {
			t.Fatalf("epoch %d: err = %v", e, err)
		}
	}
	if st := noc.BreakerStates()["b"]; st != BreakerOpen {
		t.Fatalf("breaker after %d failures = %v, want open", 2, st)
	}

	// While open: fast-fail with ErrCircuitOpen, zero attempts burned.
	_, err = noc.CollectEpoch(ctx, 3, []int{0, 1})
	var cerr *CollectionError
	if !errors.As(err, &cerr) || !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker epoch: err = %v, want ErrCircuitOpen", err)
	}
	if cerr.Outcomes[0].Attempts != 0 {
		t.Fatalf("open-breaker epoch burned %d attempts", cerr.Outcomes[0].Attempts)
	}

	// Restart the monitor on the same address, elapse the cooldown: the
	// half-open probe succeeds and the breaker closes.
	ln2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatalf("restart on %s: %v", addrB, err)
	}
	mb2, err := StartMonitorOn("b", ln2, oracle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb2.Close() })
	advance(time.Minute)

	ms, err := noc.CollectEpoch(ctx, 4, []int{0, 1})
	if err != nil {
		t.Fatalf("post-restart epoch: %v", err)
	}
	if len(ms) != 2 || !ms[1].OK || ms[1].Value != 2 {
		t.Fatalf("post-restart measurements = %+v", ms)
	}
	if st := noc.BreakerStates()["b"]; st != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", st)
	}
}

func TestFailFastDiscardsEpoch(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, _ := NewEpochOracle([]float64{1, 2}, nil)
	ma, _ := faultyMonitor(t, "a", oracle)
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": "127.0.0.1:1"},
		SourceOf: sourceAB(pm),
		Retry:    RetryPolicy{MaxAttempts: 1},
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
		FailFast: true,
	})
	ms, err := noc.CollectEpoch(context.Background(), 0, []int{0, 1})
	if err == nil {
		t.Fatal("fail-fast epoch succeeded with a dead monitor")
	}
	if ms != nil {
		t.Fatalf("fail-fast returned partial measurements: %+v", ms)
	}
	if !errors.Is(err, ErrMonitorUnreachable) {
		t.Fatalf("err = %v", err)
	}
	// CollectAssembled honours FailFast the same way.
	out, err := noc.CollectAssembled(context.Background(), 1, []int{0, 1})
	var cerr *CollectionError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CollectionError", err)
	}
	if out.Measurements != nil {
		t.Fatalf("fail-fast assembled epoch kept in-time measurements: %+v", out.Measurements)
	}
}

func TestPersistentSessionReused(t *testing.T) {
	pm := twoLinkPM(t)
	oracle, _ := NewEpochOracle([]float64{1, 2}, nil)
	ma, fl := faultyMonitor(t, "a", oracle)
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr(), "b": ma.Addr()},
		SourceOf: sourceAB(pm),
	})
	ctx := context.Background()
	for epoch := 0; epoch < 5; epoch++ {
		if _, err := noc.CollectEpoch(ctx, epoch, []int{0}); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	if got := fl.Accepted(); got != 1 {
		t.Fatalf("connections for 5 epochs = %d, want 1 persistent session", got)
	}
}

func TestCollectEpochConcurrentFaulty(t *testing.T) {
	// Concurrent epochs over a monitor that resets and garbles early
	// connections: every epoch must end in either full data or a typed
	// *CollectionError, with correct values on the OK rows. Run with -race
	// in CI.
	paths := []routing.Path{
		{Src: 0, Dst: 9, Edges: []graph.EdgeID{0}},
		{Src: 0, Dst: 9, Edges: []graph.EdgeID{1}},
	}
	pm, err := tomo.NewPathMatrix(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := NewEpochOracle([]float64{3, 4}, nil)
	ma, _ := faultyMonitor(t, "a", oracle,
		ConnFault{Reject: true},
		ConnFault{ServeReplies: 1},
		ConnFault{GarbageReplies: 1},
	)
	noc := faultNOC(t, StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"a": ma.Addr()},
		SourceOf: func(int) string { return "a" },
		Retry:    RetryPolicy{MaxAttempts: 4},
		Breaker:  BreakerPolicy{FailureThreshold: 100}, // stay closed through the scripted faults
	})

	const workers = 8
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(epoch int) {
			ms, err := noc.CollectEpoch(ctx, epoch, []int{0, 1})
			if err != nil {
				var cerr *CollectionError
				if !errors.As(err, &cerr) {
					errs <- fmt.Errorf("epoch %d: untyped error %v", epoch, err)
					return
				}
			}
			for _, m := range ms {
				if !m.OK || math.Abs(m.Value-float64(m.PathID+3)) > 1e-9 {
					errs <- fmt.Errorf("epoch %d: measurement %+v", epoch, m)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
