// Package service is the multi-tenant inference-job service behind
// `tomo serve`: an asynchronous job subsystem that lets many clients
// submit self-contained inference instances and poll for results,
// amortizing work across queries.
//
// The service is engine-agnostic: jobs are routed through the
// internal/engine registry (JobSpec.Engine, with the legacy v1
// `algorithm` field mapped onto the selection engine), and the queue,
// singleflight dedup, result cache, load shedding and metrics all key
// and label through the engine.Job interface. Adding an inference
// method is a registration in its own package, never an edit here.
//
// Three mechanisms make it production-shaped:
//
//   - A bounded worker pool drains a FIFO-with-priority queue; every job
//     runs under its own context handed to engine.Job.Run, so
//     cancellation interrupts even a long MonteRoMe run between greedy
//     iterations.
//   - A content-addressed result cache (key = the engine's canonical
//     hash of every input the result depends on) answers repeated
//     queries without recomputation, and identical in-flight
//     submissions dedup onto one execution (singleflight). Engines are
//     deterministic in their canonical inputs, so a cache hit is
//     bit-identical to a cold run.
//   - Deterministic load shedding: once the queue holds Config.QueueDepth
//     jobs, submissions fail fast with *OverloadError (HTTP maps it to
//     429 + Retry-After) instead of growing memory without bound.
//
// Shutdown is graceful: Close cancels queued-but-unstarted jobs, lets
// running jobs finish (until the drain context expires, at which point
// they are canceled), and rejects new submissions.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"robusttomo/internal/engine"
	"robusttomo/internal/obs"
)

// Sentinel errors; match with errors.Is.
var (
	// ErrClosed marks submissions after Close.
	ErrClosed = errors.New("service: closed")
	// ErrUnknownJob marks lookups of job IDs the service does not retain.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotDone marks Result calls on jobs that have not completed
	// successfully.
	ErrNotDone = errors.New("service: job not done")
	// ErrOverloaded is matched by *OverloadError.
	ErrOverloaded = errors.New("service: overloaded")
)

// OverloadError reports a shed submission: the queue already held Depth
// jobs. RetryAfter is the configured back-off hint (the Retry-After
// header value).
type OverloadError struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded: %d jobs queued, retry after %v", e.Depth, e.RetryAfter)
}

// Is reports ErrOverloaded so callers can errors.Is without the type.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Config parameterizes a Service.
type Config struct {
	// Workers is the worker-pool size. Zero means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are shed. Zero means 64.
	QueueDepth int
	// CacheBytes is the result cache's byte budget. Zero means 16 MiB;
	// negative disables caching.
	CacheBytes int64
	// RetryAfter is the back-off hint attached to shed submissions.
	// Zero means 1s.
	RetryAfter time.Duration
	// RetainJobs bounds how many terminal job records stay addressable
	// by ID (oldest evicted first); queued and running jobs are always
	// retained. Zero means 1024.
	RetainJobs int
	// Observer, when non-nil, receives service metrics (queue depth,
	// cache hit/miss/eviction and shed counters, job durations) and job
	// lifecycle events, and is handed to every engine.Job.Run.
	Observer *obs.Registry
	// BeforeRun, when non-nil, is called by the worker immediately
	// before executing a job. It is a test seam: scheduling tests block
	// in it to hold a job in the running state deterministically.
	// Production configurations leave it nil.
	BeforeRun func(spec JobSpec)
}

// job is the internal record behind one content-addressed job ID.
type job struct {
	id       string
	run      *Resolved // the submitted spec and its runnable job; nil once terminal
	eng      string    // engine name
	obsLabel string    // engine obs label, for metrics and events
	detail   string    // engine job detail, echoed in status
	priority int
	seq      uint64

	state   JobState
	res     engine.Result
	err     error
	cached  bool
	deduped int
	cancel  context.CancelFunc // set while running
	done    chan struct{}      // closed on terminal state
}

// SubmitOutcome reports how a submission was satisfied.
type SubmitOutcome struct {
	// ID is the job's content-addressed identifier; poll Status/Result
	// with it.
	ID string `json:"id"`
	// State is the job state right after submission: queued for new
	// work, running/queued when deduped onto an in-flight job, done when
	// answered from the cache.
	State JobState `json:"state"`
	// Cached reports a cache answer (no new execution will happen).
	Cached bool `json:"cached"`
	// Deduped reports attachment to an identical in-flight job.
	Deduped bool `json:"deduped"`
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	QueueDepth     int    `json:"queue_depth"`
	MaxQueueDepth  int    `json:"max_queue_depth"`
	Running        int    `json:"running"`
	Workers        int    `json:"workers"`
	Submitted      uint64 `json:"submitted"`
	Executed       uint64 `json:"executed"`
	DedupHits      uint64 `json:"dedup_hits"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheCapacity  int64  `json:"cache_capacity"`
	CacheEvictions uint64 `json:"cache_evictions"`
	Shed           uint64 `json:"shed"`
	Canceled       uint64 `json:"canceled"`
	Failed         uint64 `json:"failed"`
	Filled         uint64 `json:"filled"`
	Closed         bool   `json:"closed"`
}

// Service is the asynchronous inference-job subsystem. Construct with
// New; all methods are safe for concurrent use.
type Service struct {
	cfg Config
	reg *obs.Registry
	m   *svcMetrics

	ctx    context.Context // parent of every job context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: queue non-empty or closing
	queue    jobHeap
	jobs     map[string]*job
	retained []*job // terminal jobs in completion order, oldest first
	cache    *resultCache
	seq      uint64
	closed   bool

	running  int
	maxDepth int
	// evictionsExported tracks the cache eviction count already pushed to
	// the obs counter, so the monotonic counter follows the cache tally.
	evictionsExported uint64
	submitted         uint64
	executed          uint64
	dedup             uint64
	hits              uint64
	misses            uint64
	shed              uint64
	canceled          uint64
	failed            uint64
	filled            uint64
}

// New starts the worker pool and returns the service.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 16 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		reg:    cfg.Observer,
		m:      newSvcMetrics(cfg.Observer),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		cache:  newResultCache(cfg.CacheBytes),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// shortKey trims a job ID for event details.
func shortKey(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// eventDetail prefixes an event detail with the engine's obs label so
// the ring distinguishes which engine a lifecycle event belongs to.
func eventDetail(label, id string) string { return label + " " + shortKey(id) }

// Submit routes an inference job to its engine and enqueues it (or
// answers it from the cache / attaches it to an identical in-flight
// job), returning its content-addressed ID. It fails fast with
// *OverloadError when the queue is full and ErrClosed after Close;
// invalid specs and unknown engines (*engine.UnknownEngineError) fail
// synchronously.
func (s *Service) Submit(spec JobSpec) (SubmitOutcome, error) {
	r, err := spec.Resolve()
	if err != nil {
		return SubmitOutcome{}, err
	}
	return s.SubmitResolved(r)
}

// SubmitResolved is Submit for a spec the caller has already resolved
// (the cluster plane resolves once to find the owning shard).
func (s *Service) SubmitResolved(r *Resolved) (SubmitOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitOutcome{}, ErrClosed
	}
	if out, ok := s.answerLocked(r); ok {
		return out, nil
	}
	// Cold: shed or enqueue.
	key := r.key
	if len(s.queue) >= s.cfg.QueueDepth {
		s.shed++
		s.m.shed.Inc()
		s.reg.Event("service.job_shed", eventDetail(r.eng.ObsLabel(), key))
		return SubmitOutcome{}, &OverloadError{Depth: len(s.queue), RetryAfter: s.cfg.RetryAfter}
	}
	s.submitted++
	s.m.submitted.Inc()
	s.misses++
	s.m.cacheMiss.Inc()
	s.seq++
	j := newJob(r, StateQueued)
	j.seq = s.seq
	s.jobs[key] = j
	s.queue.push(j)
	if d := len(s.queue); d > s.maxDepth {
		s.maxDepth = d
	}
	s.m.queueDepth.Set(float64(len(s.queue)))
	s.m.costHint.With(j.obsLabel).Observe(r.ej.CostHint())
	s.reg.Event("service.job_enqueued", eventDetail(j.obsLabel, key))
	s.cond.Signal()
	return SubmitOutcome{ID: key, State: StateQueued}, nil
}

// SubmitCached is the probe-only variant of SubmitResolved, the
// non-owner half of the cluster plane's cache-fill protocol: answer the
// job from the retained jobs, an identical in-flight job, or the result
// cache — but never enqueue. It returns ok=false (with no counters
// touched) when answering would require a new execution, so the caller
// can forward the job to its owning shard instead.
func (s *Service) SubmitCached(r *Resolved) (SubmitOutcome, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitOutcome{}, false, ErrClosed
	}
	out, ok := s.answerLocked(r)
	return out, ok, nil
}

// answerLocked answers r without a new execution when it can.
// Singleflight: an identical job already queued or running absorbs the
// submission; a retained completed job or a cached result answers it
// outright.
func (s *Service) answerLocked(r *Resolved) (SubmitOutcome, bool) {
	key := r.key
	if j, ok := s.jobs[key]; ok && j.state != StateFailed && j.state != StateCanceled {
		s.submitted++
		s.m.submitted.Inc()
		if j.state == StateDone {
			s.hits++
			s.m.cacheHits.Inc()
			return SubmitOutcome{ID: key, State: StateDone, Cached: true}, true
		}
		j.deduped++
		s.dedup++
		s.m.dedupHits.Inc()
		return SubmitOutcome{ID: key, State: j.state, Deduped: true}, true
	}
	if res, ok := s.cache.get(key); ok {
		s.submitted++
		s.m.submitted.Inc()
		s.hits++
		s.m.cacheHits.Inc()
		j := newJob(r, StateDone)
		j.res, j.cached = res, true
		close(j.done)
		s.rememberLocked(j)
		return SubmitOutcome{ID: key, State: StateDone, Cached: true}, true
	}
	return SubmitOutcome{}, false
}

// newJob makes the record for a resolved submission.
func newJob(r *Resolved, state JobState) *job {
	return &job{id: r.key, run: r, eng: r.eng.Name(), obsLabel: r.eng.ObsLabel(), detail: r.ej.Detail(),
		priority: r.spec.Priority, state: state, done: make(chan struct{})}
}

// CachedResult returns a clone of the result cached (or retained) under
// key without creating a job record — the owner-side answer to a peer
// cache probe. It reports false on a cold key.
func (s *Service) CachedResult(key string) (engine.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok && j.state == StateDone {
		return j.res.Clone(), true
	}
	if res, ok := s.cache.get(key); ok {
		return res.Clone(), true
	}
	return nil, false
}

// Fill installs an externally computed result under key — the cluster
// plane's remote cache-fill path: a non-owner that fetched the owner's
// result installs it locally so later submissions of the same job are
// local cache hits, and Status/Result on the forwarded ID resolve
// through the normal service surface. The filled record reports engine
// "cluster" (the service cannot know which engine produced a remote
// payload). Fill refuses (returns false) when the service is closed or
// the key already has a live local job — the local execution's result
// is authoritative and bit-identical anyway.
func (s *Service) Fill(key string, res engine.Result) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if j, ok := s.jobs[key]; ok && j.state != StateFailed && j.state != StateCanceled {
		return false
	}
	s.cache.put(key, res)
	s.m.cacheBytes.Set(float64(s.cache.bytes))
	s.syncEvictionsLocked()
	s.filled++
	j := &job{id: key, eng: "cluster", obsLabel: "cluster", detail: "cache-fill",
		state: StateDone, res: res, cached: true, done: make(chan struct{})}
	close(j.done)
	s.rememberLocked(j)
	s.reg.Event("service.job_filled", eventDetail("cluster", key))
	return true
}

// SubmitAndWait submits a resolved job, waits for its terminal state (or
// ctx) and returns the completed result — the synchronous convenience
// the cluster peer handler and local-fallback path run on. Failed and
// canceled jobs surface their recorded error.
func (s *Service) SubmitAndWait(ctx context.Context, r *Resolved) (engine.Result, error) {
	out, err := s.SubmitResolved(r)
	if err != nil {
		return nil, err
	}
	st, err := s.Wait(ctx, out.ID)
	if err != nil {
		return nil, err
	}
	if st.State != StateDone {
		return nil, fmt.Errorf("service: job %s is %s: %s", shortKey(out.ID), st.State, st.Error)
	}
	return s.Result(out.ID)
}

// worker drains the queue until the service closes and the queue is
// empty.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue.pop()
		s.m.queueDepth.Set(float64(len(s.queue)))
		if j.state != StateQueued {
			// Canceled while queued; already terminal.
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		ctx, cancel := context.WithCancel(s.ctx)
		j.cancel = cancel
		s.running++
		s.m.running.Set(float64(s.running))
		s.mu.Unlock()

		if s.cfg.BeforeRun != nil {
			s.cfg.BeforeRun(j.run.spec)
		}
		s.reg.Event("service.job_started", eventDetail(j.obsLabel, j.id))
		span := s.reg.StartSpan("service.job_run")
		res, err := j.run.ej.Run(ctx, s.reg)
		dur := span.EndDetail(eventDetail(j.obsLabel, j.id))
		cancel()

		s.mu.Lock()
		s.running--
		s.m.running.Set(float64(s.running))
		s.executed++
		s.m.executed.Inc()
		s.m.engineExecuted.With(j.obsLabel).Inc()
		if s.m.jobSeconds != nil {
			s.m.jobSeconds.Observe(dur.Seconds())
		}
		switch {
		case err == nil:
			j.state = StateDone
			j.res = res
			s.cache.put(j.id, res)
			s.m.cacheBytes.Set(float64(s.cache.bytes))
			s.syncEvictionsLocked()
			s.reg.Event("service.job_done", eventDetail(j.obsLabel, j.id))
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.state = StateCanceled
			j.err = err
			s.canceled++
			s.m.canceled.Inc()
			s.reg.Event("service.job_canceled", eventDetail(j.obsLabel, j.id))
		default:
			j.state = StateFailed
			j.err = err
			s.failed++
			s.m.failed.Inc()
			s.reg.Event("service.job_failed", eventDetail(j.obsLabel, j.id)+": "+err.Error())
		}
		j.cancel = nil
		close(j.done)
		s.rememberLocked(j)
		s.mu.Unlock()
	}
}

func (s *Service) syncEvictionsLocked() {
	// The obs counter is monotonic; the cache tally is authoritative.
	// Add the delta since the last sync.
	delta := s.cache.evictions - s.evictionsExported
	if delta > 0 {
		s.m.evictions.Add(delta)
		s.evictionsExported = s.cache.evictions
	}
}

// rememberLocked records a terminal job for later Status/Result lookups
// and trims retention to the configured bound. Queued/running jobs never
// enter the retained list, so they are never evicted. A terminal record
// drops its spec and normalized job: only the worker reads them, before
// the job ends, and a retained record must not pin its instance.
func (s *Service) rememberLocked(j *job) {
	j.run = nil
	s.jobs[j.id] = j
	s.retained = append(s.retained, j)
	for len(s.retained) > s.cfg.RetainJobs {
		old := s.retained[0]
		s.retained[0] = nil
		s.retained = s.retained[1:]
		// A newer job may have replaced the record under this ID (e.g. a
		// retry after a failure); only drop the mapping it still owns.
		if s.jobs[old.id] == old {
			delete(s.jobs, old.id)
		}
	}
}

// Status returns a snapshot of the job.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: job %q: %w", shortKey(id), ErrUnknownJob)
	}
	return s.statusLocked(j), nil
}

func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Engine:    j.eng,
		Algorithm: j.detail,
		Priority:  j.priority,
		Cached:    j.cached,
		Deduped:   j.deduped,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the completed job's result (the concrete type is the
// engine's result payload — selection.Result for the selection engine,
// loss.Result for the loss engine). It fails with ErrNotDone (wrapped
// with the current state) until the job reaches Done, and ErrUnknownJob
// for unretained IDs. The returned result is a clone detached from the
// cached copy.
func (s *Service) Result(id string) (engine.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: job %q: %w", shortKey(id), ErrUnknownJob)
	}
	if j.state != StateDone {
		return nil, fmt.Errorf("service: job %q is %s: %w", shortKey(id), j.state, ErrNotDone)
	}
	return j.res.Clone(), nil
}

// Cancel cancels a job: queued jobs terminate immediately, running jobs
// have their context canceled (the greedy notices between iterations).
// Canceling a terminal job is a no-op. The returned status reflects the
// state after the cancel request.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: job %q: %w", shortKey(id), ErrUnknownJob)
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = fmt.Errorf("service: canceled before start: %w", context.Canceled)
		s.canceled++
		s.m.canceled.Inc()
		close(j.done)
		s.rememberLocked(j)
		s.reg.Event("service.job_canceled", shortKey(j.id))
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return s.statusLocked(j), nil
}

// Wait blocks until the job reaches a terminal state (or ctx expires)
// and returns its final status.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: job %q: %w", shortKey(id), ErrUnknownJob)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j), nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth:     len(s.queue),
		MaxQueueDepth:  s.maxDepth,
		Running:        s.running,
		Workers:        s.cfg.Workers,
		Submitted:      s.submitted,
		Executed:       s.executed,
		DedupHits:      s.dedup,
		CacheHits:      s.hits,
		CacheMisses:    s.misses,
		CacheEntries:   s.cache.len(),
		CacheBytes:     s.cache.bytes,
		CacheCapacity:  s.cache.capacity,
		CacheEvictions: s.cache.evictions,
		Shed:           s.shed,
		Canceled:       s.canceled,
		Failed:         s.failed,
		Filled:         s.filled,
		Closed:         s.closed,
	}
}

// QueueDepth returns the configured shedding bound.
func (s *Service) QueueDepth() int { return s.cfg.QueueDepth }

// RetryAfter returns the configured shed back-off hint.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Close drains the service: new submissions fail with ErrClosed,
// queued-but-unstarted jobs are canceled, and running jobs are given
// until ctx expires to finish — then their contexts are canceled and
// Close waits for the workers to acknowledge. Returns ctx.Err() when the
// drain deadline cut running jobs short, nil on a clean drain. Close is
// idempotent; concurrent calls all wait for the drain.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for len(s.queue) > 0 {
			j := s.queue.pop()
			if j.state != StateQueued {
				continue
			}
			j.state = StateCanceled
			j.err = fmt.Errorf("service: canceled by shutdown: %w", context.Canceled)
			s.canceled++
			s.m.canceled.Inc()
			close(j.done)
			s.rememberLocked(j)
			s.reg.Event("service.job_canceled", shortKey(j.id))
		}
		s.m.queueDepth.Set(0)
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // abort running jobs; selection notices between iterations
		<-done
		return ctx.Err()
	}
}
