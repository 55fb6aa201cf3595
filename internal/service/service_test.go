package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"robusttomo/internal/obs"
	"robusttomo/internal/selection"
)

// testSpec returns a small valid instance; vary n to vary the cache key.
func testSpec(n int) JobSpec {
	return JobSpec{
		Links: 6,
		Paths: [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {0, 1, 2}, {3, 4, 5}},
		Probs: []float64{0.1, 0.05, 0.2, 0.1, 0.15, 0.08},
		Costs: []float64{1, 1, 2, 1, 1, 2, 3, 3},
		// The budget perturbation keeps the instance valid while giving
		// every n a distinct canonical key.
		Budget:    4 + float64(n)*0.125,
		Algorithm: AlgProbRoMe,
	}
}

// slowMonteRoMeSpec is a monterome job within the intake limits that runs
// far longer than any deadline in these tests (still running after 10 s on
// a 2-vCPU VM, done within 20 s): every two-link path over 48
// links (1128 candidates), the largest panel selection.MaxPathRuns allows
// them (7436 scenarios) and a budget that never binds, so the greedy keeps
// picking while the scenario classes multiply. The greedy checks its
// context before every gain evaluation, so a cancel stops it promptly.
func slowMonteRoMeSpec() JobSpec {
	const links = 48
	spec := JobSpec{Links: links, Budget: 1e6, Algorithm: AlgMonteRoMe, Seed: 1}
	for a := 0; a < links; a++ {
		spec.Probs = append(spec.Probs, 0.1)
		for b := a + 1; b < links; b++ {
			spec.Paths = append(spec.Paths, []int{a, b})
		}
	}
	spec.MCRuns = selection.MaxPathRuns / len(spec.Paths)
	return spec
}

// blockFirst returns a BeforeRun hook that blocks only the job with
// testSpec(0)'s budget: it signals started once and waits on release.
// Other jobs pass straight through.
func blockFirst(started chan<- struct{}, release <-chan struct{}) func(JobSpec) {
	blocker := testSpec(0).Budget
	return func(spec JobSpec) {
		if spec.Budget == blocker {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		}
	}
}

// waitDone waits for a terminal state with a test deadline.
func waitDone(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", shortKey(id), err)
	}
	return st
}

func closeNow(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// selResult fetches a done job's result and asserts the selection
// engine's concrete payload type behind the engine.Result interface.
func selResult(t *testing.T, s *Service, id string) selection.Result {
	t.Helper()
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := res.(selection.Result)
	if !ok {
		t.Fatalf("Result returned %T, want selection.Result", res)
	}
	return sel
}

func TestSubmitRunsJob(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer closeNow(t, s)
	out, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Deduped {
		t.Fatalf("cold submission reported cached=%v deduped=%v", out.Cached, out.Deduped)
	}
	st := waitDone(t, s, out.ID)
	if st.State != StateDone {
		t.Fatalf("state %s, err %q", st.State, st.Error)
	}
	res := selResult(t, s, out.ID)
	if len(res.Selected) == 0 {
		t.Fatalf("implausible result %+v", res)
	}
}

// TestCacheHitBitIdentical is the core cache-soundness assertion: a
// cached answer is bit-identical to a cold run of the same canonical
// inputs, for every algorithm including the Monte Carlo oracle.
func TestCacheHitBitIdentical(t *testing.T) {
	for _, alg := range []string{AlgProbRoMe, AlgMonteRoMe, AlgMatRoMe, AlgSelectPath} {
		t.Run(alg, func(t *testing.T) {
			spec := testSpec(0)
			spec.Algorithm = alg
			spec.MCRuns = 64
			spec.Seed = 2014

			cold := func() selection.Result {
				s := New(Config{Workers: 1, QueueDepth: 8})
				defer closeNow(t, s)
				out, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if st := waitDone(t, s, out.ID); st.State != StateDone {
					t.Fatalf("cold run state %s, err %q", st.State, st.Error)
				}
				return selResult(t, s, out.ID)
			}
			first, second := cold(), cold()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two cold runs differ:\n%+v\n%+v", first, second)
			}

			// Same service: the second submission must be a cache answer
			// carrying the identical result with no second execution.
			s := New(Config{Workers: 1, QueueDepth: 8})
			defer closeNow(t, s)
			out, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, s, out.ID)
			again, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Cached {
				t.Fatalf("second submission not cached: %+v", again)
			}
			cachedRes := selResult(t, s, again.ID)
			if !reflect.DeepEqual(cachedRes, first) {
				t.Fatalf("cache hit differs from cold run:\n%+v\n%+v", cachedRes, first)
			}
			if st := s.Stats(); st.Executed != 1 || st.CacheHits != 1 {
				t.Fatalf("stats %+v: want exactly 1 execution and 1 cache hit", st)
			}
		})
	}
}

// TestDuplicateInflightDedup submits the same spec repeatedly while the
// first execution is blocked and asserts the underlying selection ran
// exactly once with every submission answered.
func TestDuplicateInflightDedup(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 8, BeforeRun: blockFirst(started, release)})
	first, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running and blocked
	for i := 0; i < 5; i++ {
		out, err := s.Submit(testSpec(0))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Deduped || out.ID != first.ID {
			t.Fatalf("duplicate %d not deduped onto %s: %+v", i, shortKey(first.ID), out)
		}
	}
	close(release)
	st := waitDone(t, s, first.ID)
	if st.State != StateDone {
		t.Fatalf("state %s, err %q", st.State, st.Error)
	}
	if st.Deduped != 5 {
		t.Fatalf("deduped count %d, want 5", st.Deduped)
	}
	stats := s.Stats()
	if stats.Executed != 1 {
		t.Fatalf("executed %d times, want exactly 1", stats.Executed)
	}
	if stats.DedupHits != 5 {
		t.Fatalf("dedup hits %d, want 5", stats.DedupHits)
	}
	closeNow(t, s)
}

// TestCancelQueuedJob cancels a job that no worker has picked up yet:
// it must terminate immediately without ever executing.
func TestCancelQueuedJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 8, BeforeRun: blockFirst(started, release)})
	blocker, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; anything submitted now stays queued
	queued, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if _, err := s.Result(queued.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("Result of canceled job: %v, want ErrNotDone", err)
	}
	close(release)
	waitDone(t, s, blocker.ID)
	closeNow(t, s)
	if stats := s.Stats(); stats.Executed != 1 || stats.Canceled != 1 {
		t.Fatalf("stats %+v: canceled queued job must not execute", stats)
	}
}

// TestCancelRunningJob cancels mid-flight: the greedy's context check
// turns the job into Canceled, never Failed.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	s := New(Config{Workers: 1, QueueDepth: 8, BeforeRun: func(JobSpec) {
		select {
		case started <- struct{}{}:
		default:
		}
	}})
	out, err := s.Submit(slowMonteRoMeSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(out.ID); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, out.ID)
	// The race between cancel and completion is inherent; both terminal
	// states are legal, failure is not.
	if st.State != StateCanceled && st.State != StateDone {
		t.Fatalf("state %s (err %q), want canceled or done", st.State, st.Error)
	}
	closeNow(t, s)
}

// TestCacheEvictionUnderByteBudget fills a tiny cache and asserts the
// byte budget holds with least-recently-used results evicted first.
func TestCacheEvictionUnderByteBudget(t *testing.T) {
	// Each cached result costs 128 + 64 (key) + 8·|Selected| bytes; a
	// 600-byte budget holds at most two or three results of this size.
	s := New(Config{Workers: 1, QueueDepth: 16, CacheBytes: 600})
	ids := make([]string, 0, 4)
	for n := 0; n < 4; n++ {
		out, err := s.Submit(testSpec(n))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, out.ID)
		ids = append(ids, out.ID)
	}
	stats := s.Stats()
	if stats.CacheBytes > 600 {
		t.Fatalf("cache holds %d bytes over the 600-byte budget", stats.CacheBytes)
	}
	if stats.CacheEvictions == 0 {
		t.Fatal("no evictions after overfilling the cache")
	}
	if stats.CacheEntries >= 4 {
		t.Fatalf("cache retained all %d entries", stats.CacheEntries)
	}
	// The LRU tail (first inserted, never touched since) must be gone
	// and the most recent insert present.
	s.mu.Lock()
	_, oldest := s.cache.get(ids[0])
	_, newest := s.cache.get(ids[3])
	s.mu.Unlock()
	if oldest {
		t.Error("least-recently-used result survived eviction")
	}
	if !newest {
		t.Error("most recent result was evicted")
	}
	closeNow(t, s)
}

// TestShedThenRetry overloads a depth-1 queue, asserts the deterministic
// 429-style rejection with a retry hint, then retries after draining and
// succeeds.
func TestShedThenRetry(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond,
		BeforeRun: blockFirst(started, release)})
	blocker, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(testSpec(1)) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	shedSpec := testSpec(2)
	_, err = s.Submit(shedSpec)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded submit returned %v, want *OverloadError", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadError does not match ErrOverloaded")
	}
	if oe.RetryAfter != 250*time.Millisecond || oe.Depth != 1 {
		t.Fatalf("OverloadError %+v", oe)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("shed count %d, want 1", st.Shed)
	}

	// Drain and retry: the same spec must now be accepted and complete.
	close(release)
	waitDone(t, s, blocker.ID)
	waitDone(t, s, queued.ID)
	retry, err := s.Submit(shedSpec)
	if err != nil {
		t.Fatalf("retry after drain failed: %v", err)
	}
	if st := waitDone(t, s, retry.ID); st.State != StateDone {
		t.Fatalf("retried job state %s", st.State)
	}
	closeNow(t, s)
}

// TestDrainOnClose closes the service while one job runs and one waits:
// the running job finishes (drained), the queued one is canceled, and
// later submissions are rejected.
func TestDrainOnClose(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 8, BeforeRun: blockFirst(started, release)})
	running, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	// The queued job is canceled promptly, while the running one drains.
	if st := waitDone(t, s, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state %s after Close, want canceled", st.State)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v before the running job finished", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := waitDone(t, s, running.ID); st.State != StateDone {
		t.Fatalf("running job state %s after drain, want done", st.State)
	}
	if _, err := s.Submit(testSpec(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestCloseDeadlineCancelsRunning forces the drain deadline: a stuck
// running job is canceled rather than waited on forever.
func TestCloseDeadlineCancelsRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	s := New(Config{Workers: 1, QueueDepth: 8, BeforeRun: func(JobSpec) {
		select {
		case started <- struct{}{}:
		default:
		}
	}})
	// Far longer than the drain deadline.
	out, err := s.Submit(slowMonteRoMeSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close returned %v, want deadline exceeded", err)
	}
	if st := waitDone(t, s, out.ID); st.State != StateCanceled {
		t.Fatalf("state %s after forced drain, want canceled", st.State)
	}
}

func TestInvalidSpecsRejectedSynchronously(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer closeNow(t, s)
	bad := []func(*JobSpec){
		func(sp *JobSpec) { sp.Links = 0 },
		func(sp *JobSpec) { sp.Paths = nil },
		func(sp *JobSpec) { sp.Paths[0][0] = 99 },
		func(sp *JobSpec) { sp.Probs = sp.Probs[:2] },
		func(sp *JobSpec) { sp.Probs[0] = 1.5 },
		func(sp *JobSpec) { sp.Costs = []float64{1} },
		func(sp *JobSpec) { sp.Costs[0] = -1 },
		func(sp *JobSpec) { sp.Budget = -2 },
		func(sp *JobSpec) { sp.Algorithm = "bogus" },
		func(sp *JobSpec) { sp.Algorithm = AlgMonteRoMe; sp.MCRuns = -1 },
		func(sp *JobSpec) { sp.Algorithm = AlgMonteRoMe; sp.MCRuns = selection.MaxMCRuns + 1 },
	}
	for i, mutate := range bad {
		spec := testSpec(0)
		mutate(&spec)
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid specs counted as submissions: %+v", st)
	}
	atLimit := testSpec(0)
	atLimit.Algorithm, atLimit.MCRuns = AlgMonteRoMe, selection.MaxMCRuns
	if _, err := s.Submit(atLimit); err != nil {
		t.Fatalf("mc_runs at the limit rejected: %v", err)
	}
}

// TestNormalizationSharesCacheKey asserts the documented
// canonicalization rules: default and explicit forms of the same query
// hash to the same job.
func TestNormalizationSharesCacheKey(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer closeNow(t, s)
	implicit := testSpec(0)
	implicit.Algorithm = "" // defaults to probrome
	implicit.Costs = nil    // defaults to unit costs
	implicit.Seed = 99      // irrelevant to probrome; canonicalized away
	explicit := testSpec(0)
	explicit.Algorithm = AlgProbRoMe
	explicit.Costs = []float64{1, 1, 1, 1, 1, 1, 1, 1}
	explicit.Seed = 0

	a, err := s.Submit(implicit)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, a.ID)
	b, err := s.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || !b.Cached {
		t.Fatalf("equivalent specs got IDs %s and %s (cached=%v)",
			shortKey(a.ID), shortKey(b.ID), b.Cached)
	}
}

// TestPriorityOrder submits jobs at mixed priorities against a blocked
// single worker and asserts execution order: priority descending, FIFO
// within a priority.
func TestPriorityOrder(t *testing.T) {
	var order []float64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blockerBudget := testSpec(0).Budget
	s := New(Config{Workers: 1, QueueDepth: 16, BeforeRun: func(spec JobSpec) {
		if spec.Budget == blockerBudget {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return
		}
		order = append(order, spec.Budget)
	}})
	blocker, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var ids []string
	submit := func(n, prio int) {
		spec := testSpec(n)
		spec.Priority = prio
		out, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, out.ID)
	}
	submit(1, 0)
	submit(2, 5)
	submit(3, 5)
	submit(4, 1)
	close(release)
	waitDone(t, s, blocker.ID)
	for _, id := range ids {
		waitDone(t, s, id)
	}
	closeNow(t, s)
	want := []float64{testSpec(2).Budget, testSpec(3).Budget, testSpec(4).Budget, testSpec(1).Budget}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestCanceledJobRetryable: a canceled terminal record must not poison
// the key — resubmitting the same spec executes fresh.
func TestCanceledJobRetryable(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 8, BeforeRun: blockFirst(started, release)})
	blocker, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	victim, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitDone(t, s, blocker.ID)
	// Resubmission after the canceled terminal state re-executes.
	out, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Deduped {
		t.Fatalf("resubmission after cancel reported %+v", out)
	}
	if st := waitDone(t, s, out.ID); st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	closeNow(t, s)
	if st := s.Stats(); st.Executed != 2 {
		t.Fatalf("executed %d, want 2 (blocker + retry)", st.Executed)
	}
}

// TestRetentionBound keeps the terminal-job map bounded: old completed
// jobs become unknown while their results stay cache-addressable.
func TestRetentionBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 64, RetainJobs: 3})
	defer closeNow(t, s)
	var first string
	for n := 0; n < 8; n++ {
		out, err := s.Submit(testSpec(n))
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = out.ID
		}
		waitDone(t, s, out.ID)
	}
	if _, err := s.Status(first); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still retained: %v", err)
	}
	// The result is still served content-addressed from the cache.
	out, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatalf("evicted job's cached result not reused: %+v", out)
	}
}

func TestUnknownJobLookups(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer closeNow(t, s)
	if _, err := s.Status("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status: %v", err)
	}
	if _, err := s.Result("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Result: %v", err)
	}
	if _, err := s.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel: %v", err)
	}
	if _, err := s.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait: %v", err)
	}
}

// TestResultIsolation: mutating a returned Selected slice must not
// corrupt the cached copy.
func TestResultIsolation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer closeNow(t, s)
	out, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, out.ID)
	res1 := selResult(t, s, out.ID)
	for i := range res1.Selected {
		res1.Selected[i] = -1
	}
	res2 := selResult(t, s, out.ID)
	for _, q := range res2.Selected {
		if q == -1 {
			t.Fatal("caller mutation reached the cached result")
		}
	}
}

// TestServiceObservability wires a registry and asserts the metric
// families land in the Prometheus exposition and the lifecycle events in
// the ring.
func TestServiceObservability(t *testing.T) {
	reg := obs.New()
	s := New(Config{Workers: 1, QueueDepth: 1, Observer: reg})
	out, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, out.ID)
	if _, err := s.Submit(testSpec(0)); err != nil { // cache hit
		t.Fatal(err)
	}
	closeNow(t, s)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"tomo_service_jobs_submitted_total 2",
		"tomo_service_jobs_executed_total 1",
		"tomo_service_cache_hits_total 1",
		"tomo_service_cache_misses_total 1",
		"# TYPE tomo_service_job_seconds histogram",
		"tomo_service_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
	names := map[string]bool{}
	for _, ev := range reg.Events() {
		names[ev.Name] = true
	}
	for _, want := range []string{
		"service.job_enqueued", "service.job_started", "service.job_done", "service.job_run",
	} {
		if !names[want] {
			t.Errorf("event ring missing %s (have %v)", want, names)
		}
	}
}

// TestTerminalRecordsDropInstance: a retained record keeps its status
// and result but not the submitted spec or the normalized job, whether
// it ran, was canceled in the queue, or was answered from the cache.
// Up to RetainJobs records stay addressable, and each would otherwise
// pin a whole instance.
func TestTerminalRecordsDropInstance(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 8, RetainJobs: 2, BeforeRun: blockFirst(started, release)})
	defer closeNow(t, s)
	dropped := func(id string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[id]
		if j == nil || !j.state.Terminal() {
			t.Fatalf("job %s not retained as terminal: %+v", shortKey(id), j)
		}
		if j.run != nil {
			t.Errorf("terminal %s record %s still holds its spec and job", j.state, shortKey(id))
		}
	}
	ran, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	dropped(queued.ID)
	close(release)
	waitDone(t, s, ran.ID)
	dropped(ran.ID)
	// Push the run record out of retention, then hit its cached result.
	for n := 2; n < 4; n++ {
		out, err := s.Submit(testSpec(n))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, out.ID)
	}
	hit, err := s.Submit(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", hit)
	}
	dropped(hit.ID)
}
