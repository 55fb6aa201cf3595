package agent

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"robusttomo/internal/obs"
	"robusttomo/internal/tomo"
)

// StreamNOC is the Network Operations Center: it owns the selected probing
// paths, maps each path to the monitor at its source, and collects one
// round of end-to-end measurements per epoch. It keeps every monitor
// session persistent inside one of N shards, sends one batched probe frame
// per monitor per epoch through the shard's event loop, ingests result
// frames continuously off per-connection reader goroutines, and assembles
// epochs at a watermark: an epoch is handed back when every expected path
// reported or when the watermark elapses, whichever comes first. Results
// that arrive after their epoch sealed are folded forward into the next
// epoch's AssembledEpoch.Late instead of being dropped.
//
// Sessions are logical: SessionsPerConn of them multiplex over each TCP
// connection (the batch frames carry the session's monitor name, and the
// monitor echoes it back), so 100k monitor sessions fit in a few thousand
// file descriptors. Shard ownership is static — a monitor's session,
// breaker and transport never migrate — so per-session state needs no
// cross-shard coordination.
//
// The plane is fault-tolerant: per-session circuit breakers deny sends to
// monitors that keep failing, and by default failed or missing monitors
// degrade the epoch instead of aborting it — the caller gets the
// measurements that did arrive plus a *CollectionError (wrapping
// ErrMonitorUnreachable, plus ErrCircuitOpen, ErrWatermark or
// ErrBackpressure for the cause). FailFast discards degraded epochs
// instead.
type StreamNOC struct {
	pm       *tomo.PathMatrix
	srcOf    func(path int) string
	cfg      StreamConfig
	m        *streamMetrics
	asm      *assembler
	shards   []*streamShard
	sessions map[string]*streamSession

	// baseCtx governs in-flight sends and dials; Close cancels it so a
	// wedged dial cannot stall shutdown.
	baseCtx   context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
	closed    chan struct{}
}

// StreamConfig wires up a collector.
type StreamConfig struct {
	PM *tomo.PathMatrix
	// Monitors maps monitor names to TCP addresses. Many monitors may
	// share an address: sessions are multiplexed over connections, and the
	// frame's monitor field carries the session identity.
	Monitors map[string]string
	// SourceOf returns the monitor name responsible for probing a path.
	SourceOf func(path int) string

	// Shards is the number of session shards, each with its own send queue
	// and event loop. 0 means 4.
	Shards int
	// SessionsPerConn is how many monitor sessions multiplex over one TCP
	// connection (sessions sharing a shard and an address are chunked into
	// transports of this size). 0 means 32.
	SessionsPerConn int
	// Watermark bounds how long CollectAssembled waits for stragglers
	// after the last expected path is outstanding. 0 means 2s.
	Watermark time.Duration
	// MaxLate bounds the late-result buffer folded into the next seal.
	// 0 means 65536.
	MaxLate int
	// QueueDepth bounds each shard's send queue; enqueueing into a full
	// queue drops the batch (ErrBackpressure) instead of stalling the
	// epoch loop. 0 means 1024.
	QueueDepth int
	// Encoding selects the batch frame codec (EncodingBinary default, or
	// EncodingJSON for debugging with line-oriented tools).
	Encoding Encoding

	// Retry bounds send attempts per batch; retries are immediate
	// reconnects. A zero MaxAttempts takes the DefaultRetryPolicy value.
	Retry RetryPolicy
	// Breaker configures the per-session circuit breaker; zero fields take
	// DefaultBreakerPolicy values.
	Breaker BreakerPolicy
	// Timeouts groups the dial and per-frame write deadlines; zero fields
	// take DefaultTimeouts values.
	Timeouts Timeouts
	// FailFast discards a degraded epoch: no in-time measurements, the
	// same *CollectionError.
	FailFast bool
	// Seed is accepted but not read: the plane draws no random numbers.
	Seed uint64
	// Dial overrides the TCP dialer.
	Dial DialFunc
	// Observer receives the plane's metrics and trace spans; nil runs
	// unobserved.
	Observer *obs.Registry

	// now is the injectable clock for the watermark-lag metric (tests).
	now func() time.Time
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.SessionsPerConn <= 0 {
		c.SessionsPerConn = 32
	}
	if c.Watermark <= 0 {
		c.Watermark = 2 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	c.Timeouts = c.Timeouts.withDefaults()
	if c.Dial == nil {
		c.Dial = (&net.Dialer{}).DialContext
	}
	return c
}

// DialFunc opens a connection to a monitor; it matches
// (*net.Dialer).DialContext so custom dialers (fault injection, proxies,
// in-memory transports) drop in.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// streamOf hashes a monitor name into a stable shard-assignment value.
func streamOf(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// streamSession is one logical monitor session: breaker state and a fixed
// transport assignment. Breakers are internally locked.
type streamSession struct {
	name     string
	shard    int
	tr       *streamTransport
	brk      *breaker
	brkGauge *obs.Gauge
}

func (ss *streamSession) setBreakerGauge() {
	ss.brkGauge.Set(float64(ss.brk.State()))
}

// streamJob is one batched probe send queued on a shard.
type streamJob struct {
	sess  *streamSession
	batch ProbeBatch
	paths []int         // the batch's path IDs
	cs    *collectState // the collecting epoch's send-side outcomes
	// attempts counts the sends spent on this batch, including one whose
	// connection was lost before the answer came back; lost is that read
	// error, set when the transport hands the job back for a resend.
	attempts int
	lost     error
}

// streamShard owns a slice of the session table: a bounded send queue
// drained by one event loop goroutine, plus the transports its sessions
// write through.
type streamShard struct {
	id int
	// queue carries pointers: every NOC allocates Shards×QueueDepth slots
	// up front (4×1024 by default), and a pointer slot is 8 bytes where a
	// streamJob is 88, which keeps an idle NOC's heap small.
	queue      chan *streamJob
	depthGauge *obs.Gauge
	transports []*streamTransport
	wg         sync.WaitGroup
}

// streamTransport is one multiplexed TCP connection: up to SessionsPerConn
// sessions write through it (serialized by the shard event loop plus the
// transport mutex), and one reader goroutine per live connection delivers
// result frames to the assembler.
type streamTransport struct {
	addr     string
	dial     DialFunc
	timeouts Timeouts
	onFrame  func(*ResultBatch)
	onLost   func(jobs []*streamJob, err error)
	dialHist *obs.Histogram

	mu   sync.Mutex
	conn net.Conn
	gen  int // connection generation; a reader only tears down its own conn

	// inflight holds the jobs written to a connection whose result frame
	// has not come back, so a lost connection can hand them back for a
	// resend. It has its own lock: the reader must never wait behind a
	// blocked write.
	fmu      sync.Mutex
	inflight map[flightKey]flight

	readers sync.WaitGroup
}

// flightKey names one session's batch for one epoch: a monitor answers it
// with exactly one result frame.
type flightKey struct {
	epoch   int
	monitor string
}

// flight is an in-flight job and the generation of the connection that
// carried it.
type flight struct {
	job *streamJob
	gen int
}

func (t *streamTransport) connectLocked(ctx context.Context) error {
	if t.conn != nil {
		return nil
	}
	dctx := ctx
	if t.timeouts.Dial > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, t.timeouts.Dial)
		defer cancel()
	}
	var start time.Time
	if t.dialHist != nil {
		start = time.Now()
	}
	conn, err := t.dial(dctx, "tcp", t.addr)
	if t.dialHist != nil {
		t.dialHist.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return fmt.Errorf("dial %s: %w", t.addr, err)
	}
	t.conn = conn
	t.gen++
	gen := t.gen
	t.readers.Add(1)
	go t.readLoop(conn, gen)
	return nil
}

// readLoop drains result frames off one connection until it dies, handing
// each to the assembler via onFrame. Any read error (including the NOC
// closing the conn or a garbage frame) ends the loop and hands the
// connection's unanswered jobs back for a resend; the next send redials.
func (t *streamTransport) readLoop(conn net.Conn, gen int) {
	defer t.readers.Done()
	r := bufio.NewReader(conn)
	for {
		msg, err := readMessage(r)
		if err != nil {
			t.lost(conn, gen, err)
			return
		}
		if rb, ok := msg.(*ResultBatch); ok {
			t.settle(rb.Epoch, rb.Monitor)
			t.onFrame(rb)
		}
		// Anything else on the NOC side of the stream is protocol noise;
		// skip it rather than killing a connection shared by many sessions.
	}
}

// lost tears down the transport's connection if it is still the one the
// failed reader was serving, then hands every job that connection carried
// without an answer to onLost.
func (t *streamTransport) lost(conn net.Conn, gen int, err error) {
	t.mu.Lock()
	if t.gen == gen && t.conn == conn {
		t.conn.Close()
		t.conn = nil
	} else {
		conn.Close()
	}
	t.mu.Unlock()

	var jobs []*streamJob
	t.fmu.Lock()
	for k, f := range t.inflight {
		if f.gen == gen {
			jobs = append(jobs, f.job)
			delete(t.inflight, k)
		}
	}
	t.fmu.Unlock()
	if len(jobs) > 0 {
		t.onLost(jobs, fmt.Errorf("read %s: %w", t.addr, err))
	}
}

// settle forgets a session's in-flight batch for an epoch: its answer
// arrived, or the epoch sealed without it.
func (t *streamTransport) settle(epoch int, monitor string) {
	t.fmu.Lock()
	delete(t.inflight, flightKey{epoch, monitor})
	t.fmu.Unlock()
}

// send writes one encoded frame for job, connecting if needed, and records
// the job as in flight on that connection. Any error resets the
// connection so the next send redials.
func (t *streamTransport) send(ctx context.Context, frame []byte, job *streamJob) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.connectLocked(ctx); err != nil {
		return err
	}
	// Record before writing: the answer may be read before Write returns.
	key := flightKey{job.batch.Epoch, job.batch.Monitor}
	t.fmu.Lock()
	t.inflight[key] = flight{job: job, gen: t.gen}
	t.fmu.Unlock()
	if err := t.writeLocked(frame); err != nil {
		t.settle(key.epoch, key.monitor)
		t.resetLocked()
		return err
	}
	return nil
}

func (t *streamTransport) writeLocked(frame []byte) error {
	if t.timeouts.Exchange > 0 {
		if err := t.conn.SetWriteDeadline(time.Now().Add(t.timeouts.Exchange)); err != nil {
			return fmt.Errorf("deadline %s: %w", t.addr, err)
		}
	}
	if _, err := t.conn.Write(frame); err != nil {
		return fmt.Errorf("write %s: %w", t.addr, err)
	}
	if err := t.conn.SetWriteDeadline(time.Time{}); err != nil {
		return fmt.Errorf("deadline %s: %w", t.addr, err)
	}
	return nil
}

func (t *streamTransport) resetLocked() {
	if t.conn != nil {
		t.conn.Close() // the reader notices and exits via lost()
		t.conn = nil
	}
}

func (t *streamTransport) close() {
	t.mu.Lock()
	t.resetLocked()
	t.mu.Unlock()
	t.readers.Wait()
}

// collectState accumulates send-side failures for one in-flight epoch; the
// watermark seal merges them with the paths still missing.
type collectState struct {
	mu       sync.Mutex
	sealed   bool
	outcomes map[string]*MonitorOutcome
}

func (cs *collectState) fail(name string, paths []int, attempts int, err error) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.sealed {
		return false
	}
	cs.outcomes[name] = &MonitorOutcome{Monitor: name, Paths: paths, Attempts: attempts, Err: err}
	return true
}

func (cs *collectState) isSealed() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.sealed
}

// NewStreamNOC validates the wiring and starts the shard event loops.
func NewStreamNOC(cfg StreamConfig) (*StreamNOC, error) {
	if cfg.PM == nil {
		return nil, fmt.Errorf("agent: stream NOC needs a path matrix")
	}
	if len(cfg.Monitors) == 0 {
		return nil, fmt.Errorf("agent: stream NOC needs monitors")
	}
	if cfg.SourceOf == nil {
		return nil, fmt.Errorf("agent: stream NOC needs a path→monitor mapping")
	}
	cfg = cfg.withDefaults()
	m := newStreamMetrics(cfg.Observer)
	s := &StreamNOC{
		pm:       cfg.PM,
		srcOf:    cfg.SourceOf,
		cfg:      cfg,
		m:        m,
		asm:      newAssembler(cfg.now, cfg.MaxLate),
		sessions: make(map[string]*streamSession, len(cfg.Monitors)),
		closed:   make(chan struct{}),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	// Deterministic session order: sorted monitor names, sharded by name
	// hash so ownership is stable across restarts regardless of map order.
	names := make([]string, 0, len(cfg.Monitors))
	for name := range cfg.Monitors {
		names = append(names, name)
	}
	sort.Strings(names)

	s.shards = make([]*streamShard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &streamShard{
			id:         i,
			queue:      make(chan *streamJob, cfg.QueueDepth),
			depthGauge: m.queueDepth.With(strconv.Itoa(i)),
		}
	}

	// Group each shard's sessions by monitor address and chunk the groups
	// into transports of SessionsPerConn sessions each.
	type trKey struct {
		shard int
		addr  string
	}
	open := make(map[trKey]*streamTransport)
	fill := make(map[trKey]int)
	for _, name := range names {
		addr := cfg.Monitors[name]
		shard := int(streamOf(name) % uint64(cfg.Shards))
		key := trKey{shard, addr}
		tr := open[key]
		if tr == nil || fill[key] >= cfg.SessionsPerConn {
			tr = &streamTransport{
				addr:     addr,
				dial:     cfg.Dial,
				timeouts: cfg.Timeouts,
				onFrame:  s.handleResultBatch,
				onLost:   s.resend,
				dialHist: m.dialSeconds,
				inflight: make(map[flightKey]flight),
			}
			s.shards[shard].transports = append(s.shards[shard].transports, tr)
			open[key] = tr
			fill[key] = 0
		}
		fill[key]++
		ss := &streamSession{
			name:     name,
			shard:    shard,
			tr:       tr,
			brk:      newBreaker(cfg.Breaker),
			brkGauge: m.breakerState.With(name),
		}
		ss.brkGauge.Set(float64(BreakerClosed))
		s.sessions[name] = ss
	}

	for _, sh := range s.shards {
		sh.wg.Add(1)
		go s.shardLoop(sh)
	}
	return s, nil
}

// shardLoop is one shard's event loop: it drains the send queue, encoding
// and writing one batch frame per job. Each failed send attempt, and each
// written batch whose connection was lost before the answer came back,
// feeds the session breaker; once the retry budget is spent the job fails
// back to the collecting epoch. There is no in-loop backoff sleep (that
// would head-of-line block every session on the shard) — the breaker's
// cooldown provides backoff across epochs, and the retry budget here is
// spent on immediate reconnect attempts.
func (s *StreamNOC) shardLoop(sh *streamShard) {
	defer sh.wg.Done()
	var scratch []byte
	ctx := s.baseCtx
	for {
		var job *streamJob
		var ok bool
		select {
		case <-s.closed:
			// Drain without sending so queued epochs fail fast on close.
			select {
			case job, ok = <-sh.queue:
				if !ok {
					return
				}
				s.fail(job, fmt.Errorf("%w: %s: stream NOC closed", ErrMonitorUnreachable, job.sess.name))
				continue
			default:
				return
			}
		case job, ok = <-sh.queue:
			if !ok {
				return
			}
		}
		sh.depthGauge.Set(float64(len(sh.queue)))

		ss := job.sess
		if job.lost != nil {
			if job.cs.isSealed() {
				// The epoch sealed before the resend: its paths already
				// read as missing, and the seal counted the miss.
				continue
			}
			// The batch was written but its connection died unanswered:
			// that attempt failed.
			ss.brk.failure()
			ss.setBreakerGauge()
		}
		var err error
		scratch, err = EncodeProbeBatch(scratch[:0], s.cfg.Encoding, &job.batch)
		if err != nil {
			// Unencodable batch: a wiring bug, not the monitor's fault.
			s.fail(job, fmt.Errorf("%w: %s: %w", ErrMonitorUnreachable, ss.name, err))
			continue
		}
		err = job.lost
		sent := false
		for !sent && job.attempts < s.cfg.Retry.MaxAttempts {
			if !ss.brk.allow() {
				s.m.circuitDenied.Inc()
				err = fmt.Errorf("%w: monitor %s cooling down", ErrCircuitOpen, ss.name)
				break
			}
			job.attempts++
			s.m.attempts.Inc()
			if job.attempts > 1 {
				s.m.retries.Inc()
			}
			if err = ss.tr.send(ctx, scratch, job); err == nil {
				sent = true
				break
			}
			ss.brk.failure()
			ss.setBreakerGauge()
		}
		if !sent {
			ss.setBreakerGauge()
			if !errors.Is(err, ErrCircuitOpen) {
				err = fmt.Errorf("%w: %s after %d attempt(s): %w", ErrMonitorUnreachable, ss.name, job.attempts, err)
			}
			s.fail(job, err)
			continue
		}
		// The job may already be back in the queue (its connection lost):
		// read nothing of it but the immutable batch from here on.
		s.m.framesSent.Inc()
		s.m.batchPaths.Observe(float64(len(job.batch.Paths)))
	}
}

// fail reports a job's paths as unsendable back to the collecting epoch:
// it records the outcome and shrinks the assembler expectation, so the
// epoch need not wait out the watermark for answers that cannot come.
func (s *StreamNOC) fail(job *streamJob, err error) {
	if job.cs.fail(job.sess.name, job.paths, job.attempts, err) {
		s.asm.abandon(job.batch.Epoch, job.paths)
	}
}

// resend hands the jobs a lost connection carried without an answer back
// to their shard loops, which resend them at once within the retry budget.
func (s *StreamNOC) resend(jobs []*streamJob, err error) {
	for _, job := range jobs {
		job.lost = err
		select {
		case <-s.closed:
			s.fail(job, fmt.Errorf("%w: %s: stream NOC closed", ErrMonitorUnreachable, job.sess.name))
			continue
		default:
		}
		s.enqueue(job)
	}
}

// enqueue puts a job on its shard's send queue without blocking; a full
// queue fails the job with ErrBackpressure.
func (s *StreamNOC) enqueue(job *streamJob) {
	sh := s.shards[job.sess.shard]
	select {
	case sh.queue <- job:
		sh.depthGauge.Set(float64(len(sh.queue)))
	default:
		s.m.backpressureDrops.Inc()
		s.fail(job, fmt.Errorf("%w: %w: shard %d queue full (monitor %s)", ErrMonitorUnreachable, ErrBackpressure, sh.id, job.sess.name))
	}
}

// handleResultBatch is the continuous ingest path, called from transport
// reader goroutines for every result frame on any connection.
func (s *StreamNOC) handleResultBatch(rb *ResultBatch) {
	s.m.framesReceived.Inc()
	ms := make([]Measurement, len(rb.Results))
	for i, r := range rb.Results {
		ms[i] = Measurement{PathID: r.PathID, OK: r.OK, Value: r.Value}
	}
	st := s.asm.ingest(rb.Epoch, rb.Monitor, ms)
	if st.duplicates > 0 {
		s.m.duplicateResults.Add(uint64(st.duplicates))
	}
	if st.foreign > 0 {
		s.m.foreignResults.Add(uint64(st.foreign))
	}
	if st.late > 0 {
		s.m.lateResults.Add(uint64(st.late))
	}
	if st.lateDrop > 0 {
		s.m.lateDropped.Add(uint64(st.lateDrop))
	}
	if st.lag > 0 {
		s.m.watermarkLag.Observe(st.lag.Seconds())
	}
}

// CollectAssembled probes the selected paths for one epoch through the
// sharded plane and returns the watermark-assembled epoch: measurements
// that arrived in time, the paths that missed the watermark, and any
// older-epoch results that folded forward.
//
// Failed monitors degrade the epoch instead of aborting it: the error is a
// *CollectionError listing each failed monitor's outcome (attempts, last
// error, breaker state), and errors.Is works through it — expect
// ErrMonitorUnreachable or ErrCircuitOpen. With FailFast set, a degraded
// epoch carries no in-time measurements (Late still drains). Wiring bugs —
// a path index out of range (ErrPathOutOfRange) or a path whose source has
// no registered monitor (ErrUnknownMonitor) — fail the epoch outright
// regardless of mode.
func (s *StreamNOC) CollectAssembled(ctx context.Context, epoch int, selected []int) (AssembledEpoch, error) {
	if err := ctx.Err(); err != nil {
		return AssembledEpoch{}, err
	}
	select {
	case <-s.closed:
		return AssembledEpoch{}, fmt.Errorf("agent: stream NOC closed")
	default:
	}
	s.m.epochs.Inc()
	sp := s.m.reg.StartSpan("agent.collect_assembled")

	byMonitor := map[string][]int{}
	var order []string
	for _, p := range selected {
		if p < 0 || p >= s.pm.NumPaths() {
			sp.EndDetail("wiring bug: path out of range")
			return AssembledEpoch{}, fmt.Errorf("%w: path %d (matrix has %d)", ErrPathOutOfRange, p, s.pm.NumPaths())
		}
		name := s.srcOf(p)
		if _, ok := s.sessions[name]; !ok {
			sp.EndDetail("wiring bug: unknown monitor")
			return AssembledEpoch{}, fmt.Errorf("%w: %q (path %d)", ErrUnknownMonitor, name, p)
		}
		if _, seen := byMonitor[name]; !seen {
			order = append(order, name)
		}
		byMonitor[name] = append(byMonitor[name], p)
	}

	done, err := s.asm.openEpoch(epoch, byMonitor)
	if err != nil {
		sp.EndDetail("epoch already open")
		return AssembledEpoch{}, err
	}
	cs := &collectState{outcomes: make(map[string]*MonitorOutcome)}

	for _, name := range order {
		paths := byMonitor[name]
		ss := s.sessions[name]
		batch := ProbeBatch{
			Type:    MsgBatch,
			Epoch:   epoch,
			Monitor: name,
			Paths:   make([]BatchPath, len(paths)),
		}
		for i, p := range paths {
			batch.Paths[i] = BatchPath{PathID: p, Links: s.pm.EdgesOf(p)}
		}
		s.enqueue(&streamJob{sess: ss, batch: batch, paths: paths, cs: cs})
	}

	timer := time.NewTimer(s.cfg.Watermark)
	select {
	case <-done:
	case <-timer.C:
	case <-ctx.Done():
	case <-s.closed:
	}
	timer.Stop()

	cs.mu.Lock()
	cs.sealed = true
	out := s.asm.seal(epoch)
	outcomes := make([]MonitorOutcome, 0, len(cs.outcomes))
	for _, o := range cs.outcomes {
		outcomes = append(outcomes, *o)
	}
	cs.mu.Unlock()

	// Paths still missing at the seal, from monitors without a send-side
	// outcome, missed the watermark: the probe went out and no answer came
	// back in time. That counts as a breaker failure for the session, and
	// the transport stops holding the batch for a resend.
	if len(out.Missing) > 0 {
		missingBy := map[string][]int{}
		for _, p := range out.Missing {
			name := s.srcOf(p)
			missingBy[name] = append(missingBy[name], p)
		}
		for name, paths := range missingBy {
			ss := s.sessions[name]
			ss.tr.settle(epoch, name)
			if _, already := cs.outcomes[name]; already {
				continue
			}
			s.m.watermarkMissed.Inc()
			ss.brk.failure()
			ss.setBreakerGauge()
			outcomes = append(outcomes, MonitorOutcome{
				Monitor:  name,
				Paths:    paths,
				Attempts: 1,
				Err: fmt.Errorf("%w: %w: monitor %s missed %d path(s) at watermark %v",
					ErrMonitorUnreachable, ErrWatermark, name, len(paths), s.cfg.Watermark),
				Breaker: ss.brk.State(),
			})
		}
	}
	failed := make(map[string]bool, len(outcomes))
	for i := range outcomes {
		failed[outcomes[i].Monitor] = true
		if ss, ok := s.sessions[outcomes[i].Monitor]; ok {
			outcomes[i].Breaker = ss.brk.State()
		}
	}
	// Every other probed monitor delivered all its paths in time. Its
	// breaker success is recorded here, after the seal, so BreakerStates is
	// settled by the time the epoch returns.
	for _, name := range order {
		if !failed[name] {
			ss := s.sessions[name]
			ss.brk.success()
			ss.setBreakerGauge()
		}
	}

	if len(outcomes) > 0 {
		sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Monitor < outcomes[j].Monitor })
		cerr := &CollectionError{Epoch: epoch, Outcomes: outcomes}
		s.m.degradedEpochs.Inc()
		for _, o := range outcomes {
			s.m.lostPaths.Add(uint64(len(o.Paths)))
		}
		sp.EndDetail(fmt.Sprintf("epoch=%d degraded monitors=%d late=%d", epoch, len(outcomes), len(out.Late)))
		if s.cfg.FailFast {
			out.Measurements = nil
		}
		return out, cerr
	}
	sp.EndDetail(fmt.Sprintf("epoch=%d ok late=%d", epoch, len(out.Late)))
	return out, nil
}

// CollectEpoch is CollectAssembled reduced to the epoch's in-time
// measurements, sorted by path ID; late folded results are only available
// through CollectAssembled.
func (s *StreamNOC) CollectEpoch(ctx context.Context, epoch int, selected []int) ([]Measurement, error) {
	out, err := s.CollectAssembled(ctx, epoch, selected)
	return out.Measurements, err
}

// BreakerStates reports each session's circuit-breaker state.
func (s *StreamNOC) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(s.sessions))
	for name, ss := range s.sessions {
		out[name] = ss.brk.State()
	}
	return out
}

// setClock overrides every session breaker's clock for deterministic
// cooldown tests.
func (s *StreamNOC) setClock(now func() time.Time) {
	for _, ss := range s.sessions {
		ss.brk.now = now
	}
}

// Close shuts the shard loops down, fails any queued sends, tears down
// every transport connection and waits for the reader goroutines. A closed
// StreamNOC stays closed.
func (s *StreamNOC) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.cancel()
		for _, sh := range s.shards {
			sh.wg.Wait()
			for _, tr := range sh.transports {
				tr.close()
			}
		}
	})
	return nil
}
