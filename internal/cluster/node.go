package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/engine"
	"robusttomo/internal/service"
)

// ErrNodeClosed marks submissions after Node.Close.
var ErrNodeClosed = errors.New("cluster: node closed")

// rawResult is a remote peer's result payload adapted to the
// engine.Result interface so it can live in the local result cache and
// behind the normal service surface. It is the already-marshaled JSON
// bytes, and MarshalJSON returns them verbatim — a forwarded job's HTTP
// response is bit-identical to the owner's (and to a single-node run,
// since engines are deterministic in their canonical inputs).
type rawResult []byte

// SizeBytes implements engine.Result.
func (r rawResult) SizeBytes() int64 { return int64(len(r)) }

// Clone implements engine.Result.
func (r rawResult) Clone() engine.Result {
	out := make(rawResult, len(r))
	copy(out, r)
	return out
}

// MarshalJSON returns the remote payload verbatim.
func (r rawResult) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return []byte(r), nil
}

// remoteJob tracks one forwarded submission from launch to terminal
// state. Mutable fields are guarded by the owning Node's mutex.
type remoteJob struct {
	key      string
	run      *service.Resolved  // the resolved submission; nil once terminal
	priority int                // submission priority, echoed in status
	owner    string             // ring owner at submit time
	cancel   context.CancelFunc // cancels the forward's legs
	done     chan struct{}      // closed on terminal state

	state   service.JobState
	res     engine.Result
	err     error
	deduped int
}

// retainRemote bounds how many terminal (failed/canceled) forward
// records stay addressable by ID; successes hand off to the service
// cache and are not retained here.
const retainRemote = 256

// Node is one cluster member: the consistent-hash routing layer in
// front of a local service.Service. Construct with New; all methods are
// safe for concurrent use.
type Node struct {
	cfg  Config
	ring *Ring
	svc  *service.Service
	m    *clusterMetrics

	breakers map[string]*agent.Breaker // per peer

	ctx    context.Context // parent of every forward
	cancel context.CancelFunc

	gossipStop chan struct{}
	wg         sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	remote     map[string]*remoteJob
	remoteDone []string // terminal retained keys, oldest first

	// Disposition counters. Invariant (held at every instant):
	//   submitted == cacheHits + owned + forwards + forwardDedup + shed + rejected
	// and, once forwards drain:
	//   forwards == forwardWins + hedgeWins + fallbacks + forwardErrors
	submitted     uint64
	owned         uint64
	cacheHits     uint64
	forwards      uint64
	forwardDedup  uint64
	shed          uint64
	rejected      uint64
	forwardWins   uint64
	hedgeWins     uint64
	hedges        uint64
	fallbacks     uint64
	forwardErrors uint64
	remoteFills   uint64
	peerServed    map[string]uint64 // by op name
}

// New validates cfg and returns a running Node (its gossip loop starts
// unless GossipInterval is negative). The caller owns the Service's
// lifecycle; Close tears down forwards, gossip and the transport.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	n := &Node{
		cfg:        cfg,
		ring:       NewRing(members, cfg.RingReplicas),
		svc:        cfg.Service,
		m:          newClusterMetrics(cfg.Observer),
		breakers:   make(map[string]*agent.Breaker, len(cfg.Peers)),
		gossipStop: make(chan struct{}),
		remote:     make(map[string]*remoteJob),
		peerServed: make(map[string]uint64),
	}
	for _, p := range cfg.Peers {
		n.breakers[p] = agent.NewBreaker(cfg.Breaker)
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	if cfg.GossipInterval > 0 {
		n.wg.Add(1)
		go n.gossipLoop()
	}
	return n, nil
}

// Self returns this node's ring address.
func (n *Node) Self() string { return n.cfg.Self }

// Ring returns the node's (immutable) placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// alive is the ring liveness predicate: self is always alive, a peer is
// alive while its breaker is not open. (Half-open counts as alive — the
// ring keeps routing to it so the admitted probe can close it.)
func (n *Node) alive(member string) bool {
	if member == n.cfg.Self {
		return true
	}
	br, ok := n.breakers[member]
	if !ok {
		return false
	}
	return br.State() != agent.BreakerOpen
}

func (n *Node) setPeerGauge(peer string) {
	if br, ok := n.breakers[peer]; ok {
		n.m.peerState.With(peer).Set(float64(br.State()))
	}
}

// Submit routes spec: owned keys run on the local service, non-owned
// keys are answered from the local cache when possible and otherwise
// forwarded to the owning shard (with hedging; see runForward). The
// returned outcome's ID is pollable through Status/Result/Wait exactly
// as on a single node.
func (n *Node) Submit(spec service.JobSpec) (service.SubmitOutcome, error) {
	// One Normalize per node: the resolved job serves the ring lookup,
	// the local cache probe and any local execution.
	r, err := spec.Resolve()
	if err != nil {
		n.mu.Lock()
		n.submitted++
		n.rejected++
		n.mu.Unlock()
		n.m.submitted.Inc()
		return service.SubmitOutcome{}, err
	}
	key := r.Key()

	n.mu.Lock()
	defer n.mu.Unlock()
	n.submitted++
	n.m.submitted.Inc()
	if n.closed {
		n.rejected++
		return service.SubmitOutcome{}, ErrNodeClosed
	}

	owner, ok := n.ring.Owner(key, n.alive)
	if !ok || owner == n.cfg.Self {
		// Owned (or sole survivor): the local service runs it, and its
		// singleflight absorbs concurrent arrivals of the same key.
		out, err := n.svc.SubmitResolved(r)
		switch {
		case err == nil && out.Cached:
			n.cacheHits++
			n.m.cacheHits.Inc()
		case err == nil:
			n.owned++
			n.m.owned.Inc()
		case errors.Is(err, service.ErrOverloaded):
			n.shed++
		default:
			n.rejected++
		}
		return out, err
	}

	// Non-owned: answer locally if the cache already can (dedup onto
	// in-flight local jobs included), never enqueue locally.
	out, answered, err := n.svc.SubmitCached(r)
	if err != nil {
		n.rejected++
		return out, err
	}
	if answered {
		n.cacheHits++
		n.m.cacheHits.Inc()
		return out, nil
	}

	// Forward. Identical in-flight forwards dedup onto one peer call —
	// with the owner's own singleflight that makes a cluster-wide
	// execute-at-most-once while membership is stable.
	if rj, ok := n.remote[key]; ok && !rj.state.Terminal() {
		rj.deduped++
		n.forwardDedup++
		n.m.forwardDedup.Inc()
		return service.SubmitOutcome{ID: key, State: rj.state, Deduped: true}, nil
	}
	fctx, cancel := context.WithCancel(n.ctx)
	rj := &remoteJob{key: key, run: r, priority: spec.Priority, owner: owner, cancel: cancel,
		done: make(chan struct{}), state: service.StateQueued}
	n.remote[key] = rj
	n.forwards++
	n.m.forwards.Inc()
	// Owner first, then the replica a hedge escalates to. Two distinct
	// targets always exist: self is a ring member and always alive.
	targets := n.ring.Successors(key, 2, n.alive)
	n.wg.Add(1)
	go n.runForward(fctx, rj, targets)
	return service.SubmitOutcome{ID: key, State: service.StateQueued}, nil
}

// legResult is one forward leg's outcome.
type legResult struct {
	hedge   bool
	local   bool
	payload []byte        // remote leg result bytes
	res     engine.Result // local leg result
	err     error
}

// runForward drives one forwarded submission: a primary OpExec call to
// the ring owner, a hedge leg to the successor after HedgeAfter (or
// immediately when the primary fails fast), first-response-wins with
// loser cancellation, and local execution as the last resort when every
// remote leg fails. The winning payload cache-fills the local service
// so the forwarded ID resolves through the normal service surface.
func (n *Node) runForward(ctx context.Context, rj *remoteJob, targets []string) {
	defer n.wg.Done()
	defer rj.cancel()
	start := time.Now()

	run := rj.run
	specJSON, err := json.Marshal(run.Spec())
	if err != nil {
		n.finishForward(rj, legResult{err: fmt.Errorf("cluster: encoding spec: %w", err)}, start, false)
		return
	}

	primary := targets[0]
	hedgeTarget := n.cfg.Self
	if len(targets) > 1 {
		hedgeTarget = targets[1]
	}

	resCh := make(chan legResult, 2)
	outstanding := 0
	fire := func(target string, hedge bool) {
		outstanding++
		go n.runLeg(ctx, target, hedge, rj.key, run, specJSON, resCh)
	}
	fire(primary, false)

	hedged := false
	fireHedge := func() {
		if hedged || hedgeTarget == primary {
			return
		}
		hedged = true
		n.mu.Lock()
		n.hedges++
		n.mu.Unlock()
		n.m.hedges.Inc()
		fire(hedgeTarget, true)
	}

	hedgeAfter := n.cfg.HedgeAfter
	if hedgeAfter < 0 {
		hedgeAfter = 0
	}
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()

	var winner legResult
	var lastErr error
	won, localRan := false, false
	for outstanding > 0 && !won {
		select {
		case r := <-resCh:
			outstanding--
			localRan = localRan || r.local
			if r.err == nil {
				winner, won = r, true
			} else {
				lastErr = r.err
				// A failed primary hedges immediately; a failed hedge
				// just leaves the primary running.
				fireHedge()
			}
		case <-timer.C:
			fireHedge()
		}
	}
	rj.cancel() // loser cancellation: the slower leg's wait ends now

	if !won {
		if ctx.Err() != nil {
			// Canceled (by Cancel or node shutdown) — surface that, not
			// the transport noise the cancellation caused.
			n.finishForward(rj, legResult{err: fmt.Errorf("cluster: forward to %s abandoned: %w", primary, ctx.Err())}, start, false)
			return
		}
		if localRan {
			// The job itself failed locally — deterministic, retrying
			// is pointless.
			n.finishForward(rj, legResult{err: lastErr}, start, false)
			return
		}
		// Every remote leg failed; a cluster of one healthy node still
		// answers everything.
		res, err := n.svc.SubmitAndWait(ctx, run)
		if err != nil {
			err = fmt.Errorf("cluster: local fallback after %v: %w", lastErr, err)
		}
		n.finishForward(rj, legResult{local: true, res: res, err: err}, start, true)
		return
	}
	n.finishForward(rj, winner, start, false)
}

// runLeg executes one forward leg: local submission when target is
// self, an OpExec peer call (feeding the peer's breaker) otherwise.
func (n *Node) runLeg(ctx context.Context, target string, hedge bool, key string, run *service.Resolved, specJSON []byte, out chan<- legResult) {
	if target == n.cfg.Self {
		res, err := n.svc.SubmitAndWait(ctx, run)
		out <- legResult{hedge: hedge, local: true, res: res, err: err}
		return
	}
	br := n.breakers[target]
	if br != nil && !br.Allow() {
		out <- legResult{hedge: hedge, err: fmt.Errorf("%w: %s breaker open", ErrPeerUnreachable, target)}
		return
	}
	callCtx, cancel := context.WithTimeout(ctx, n.cfg.CallTimeout)
	defer cancel()
	resp, err := n.cfg.Transport.Call(callCtx, target, &PeerRequest{
		Op: OpExec, Forwarded: true, Key: key, Origin: n.cfg.Self, Spec: specJSON,
	})
	if br != nil {
		// Transport failure marks the peer suspect; any decoded response
		// (including a job failure) proves it alive.
		if err != nil {
			br.Failure()
		} else {
			br.Success()
		}
		n.setPeerGauge(target)
	}
	if err != nil {
		out <- legResult{hedge: hedge, err: err}
		return
	}
	switch resp.Status {
	case StatusOK:
		out <- legResult{hedge: hedge, payload: resp.Payload}
	case StatusOverloaded:
		out <- legResult{hedge: hedge, err: fmt.Errorf("cluster: %s shed the job: %s", target, resp.Err)}
	default:
		out <- legResult{hedge: hedge, err: fmt.Errorf("cluster: %s: %s", target, resp.Err)}
	}
}

// finishForward records a forward's terminal state: counters, metrics,
// cache-fill for remote payloads, and the remote-job record's
// resolution (successes hand off to the service surface and drop out of
// the remote map; failures are retained, bounded by retainRemote).
func (n *Node) finishForward(rj *remoteJob, r legResult, start time.Time, fallback bool) {
	n.m.forwardSec.Observe(time.Since(start).Seconds())
	var res engine.Result
	if r.err == nil {
		if r.local {
			res = r.res
		} else {
			raw := rawResult(r.payload)
			if n.svc.Fill(rj.key, raw) {
				n.mu.Lock()
				n.remoteFills++
				n.mu.Unlock()
				n.m.remoteFills.Inc()
			}
			res = raw
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	rj.run = nil // a retained record must not pin the instance
	if r.err == nil {
		switch {
		case fallback:
			n.fallbacks++
			n.m.fallbacks.Inc()
		case r.hedge:
			n.hedgeWins++
			n.m.hedgeWins.Inc()
		default:
			n.forwardWins++
			n.m.forwardWins.Inc()
		}
		rj.state = service.StateDone
		rj.res = res
		close(rj.done)
		// The service cache is now authoritative for this key; later
		// submissions are local cache hits.
		if n.remote[rj.key] == rj {
			delete(n.remote, rj.key)
		}
		return
	}
	n.forwardErrors++
	n.m.forwardErrors.Inc()
	if errors.Is(r.err, context.Canceled) {
		rj.state = service.StateCanceled
	} else {
		rj.state = service.StateFailed
	}
	rj.err = r.err
	close(rj.done)
	n.remoteDone = append(n.remoteDone, rj.key)
	for len(n.remoteDone) > retainRemote {
		old := n.remoteDone[0]
		n.remoteDone = n.remoteDone[1:]
		if j, ok := n.remote[old]; ok && j.state.Terminal() {
			delete(n.remote, old)
		}
	}
}

// HandlePeer implements PeerHandler — the receiving half of the peer
// protocol. Exec requests run on the local service (the request's
// Forwarded flag means they are never forwarded again, so routing loops
// are impossible by construction); cache probes answer only from cache;
// stats and ping serve the gossip and aggregation planes.
func (n *Node) HandlePeer(ctx context.Context, req *PeerRequest) *PeerResponse {
	n.mu.Lock()
	n.peerServed[req.Op.String()]++
	n.mu.Unlock()
	n.m.peerServed.With(req.Op.String()).Inc()

	switch req.Op {
	case OpPing:
		return &PeerResponse{Status: StatusOK}
	case OpStats:
		payload, err := json.Marshal(n.Stats())
		if err != nil {
			return &PeerResponse{Status: StatusFailed, Err: err.Error()}
		}
		return &PeerResponse{Status: StatusOK, Payload: payload}
	case OpCacheProbe:
		res, ok := n.svc.CachedResult(req.Key)
		if !ok {
			return &PeerResponse{Status: StatusMiss}
		}
		payload, err := json.Marshal(res)
		if err != nil {
			return &PeerResponse{Status: StatusFailed, Err: err.Error()}
		}
		return &PeerResponse{Status: StatusOK, Payload: payload}
	case OpExec:
		// The owner resolves the peer's spec itself: a node trusts no
		// peer's normalization.
		var spec service.JobSpec
		if err := json.Unmarshal(req.Spec, &spec); err != nil {
			return &PeerResponse{Status: StatusFailed, Err: fmt.Sprintf("decoding spec: %v", err)}
		}
		r, err := spec.Resolve()
		if err != nil {
			return &PeerResponse{Status: StatusFailed, Err: err.Error()}
		}
		res, err := n.svc.SubmitAndWait(ctx, r)
		if err != nil {
			if errors.Is(err, service.ErrOverloaded) {
				return &PeerResponse{Status: StatusOverloaded, Err: err.Error()}
			}
			return &PeerResponse{Status: StatusFailed, Err: err.Error()}
		}
		payload, err := json.Marshal(res)
		if err != nil {
			return &PeerResponse{Status: StatusFailed, Err: err.Error()}
		}
		return &PeerResponse{Status: StatusOK, Payload: payload}
	default:
		return &PeerResponse{Status: StatusFailed, Err: fmt.Sprintf("unhandled op %s", req.Op)}
	}
}

// Status reports a job by ID, resolving in-flight and failed forwards
// from the remote map and everything else through the local service
// (completed forwards live there as cache-fill records).
func (n *Node) Status(id string) (service.JobStatus, error) {
	n.mu.Lock()
	if rj, ok := n.remote[id]; ok {
		st := remoteStatusLocked(rj)
		n.mu.Unlock()
		return st, nil
	}
	n.mu.Unlock()
	return n.svc.Status(id)
}

func remoteStatusLocked(rj *remoteJob) service.JobStatus {
	st := service.JobStatus{
		ID:        rj.key,
		State:     rj.state,
		Engine:    "cluster",
		Algorithm: "forward:" + rj.owner,
		Priority:  rj.priority,
		Deduped:   rj.deduped,
	}
	if rj.err != nil {
		st.Error = rj.err.Error()
	}
	return st
}

// Result returns a completed job's result by ID (remote results come
// back as the owner's verbatim payload bytes).
func (n *Node) Result(id string) (engine.Result, error) {
	n.mu.Lock()
	if rj, ok := n.remote[id]; ok {
		defer n.mu.Unlock()
		if rj.state == service.StateDone && rj.res != nil {
			return rj.res.Clone(), nil
		}
		return nil, fmt.Errorf("%w: job %s is %s", service.ErrNotDone, shortID(id), rj.state)
	}
	n.mu.Unlock()
	return n.svc.Result(id)
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns its status, covering local and forwarded jobs alike.
func (n *Node) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	n.mu.Lock()
	rj, ok := n.remote[id]
	n.mu.Unlock()
	if ok {
		select {
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		case <-rj.done:
		}
		return n.Status(id)
	}
	return n.svc.Wait(ctx, id)
}

// Cancel cancels a job: forwards abandon their legs (the owner may
// still complete the execution for its own cache), local jobs cancel
// through the service.
func (n *Node) Cancel(id string) (service.JobStatus, error) {
	n.mu.Lock()
	rj, ok := n.remote[id]
	n.mu.Unlock()
	if ok {
		rj.cancel()
		return n.Status(id)
	}
	return n.svc.Cancel(id)
}

// GossipOnce health-pings every peer whose breaker admits an attempt,
// feeding outcomes back into the breakers. The background loop calls it
// every GossipInterval; tests call it directly for determinism.
func (n *Node) GossipOnce(ctx context.Context) {
	for _, p := range n.cfg.Peers {
		br := n.breakers[p]
		if !br.Allow() {
			n.setPeerGauge(p)
			continue
		}
		callCtx, cancel := context.WithTimeout(ctx, n.cfg.CallTimeout)
		_, err := n.cfg.Transport.Call(callCtx, p, &PeerRequest{Op: OpPing, Origin: n.cfg.Self})
		cancel()
		if err != nil {
			br.Failure()
		} else {
			br.Success()
		}
		n.setPeerGauge(p)
	}
}

func (n *Node) gossipLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.GossipInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.gossipStop:
			return
		case <-tick.C:
			n.GossipOnce(n.ctx)
		}
	}
}

// Close stops the gossip loop, rejects new submissions, and drains
// in-flight forwards — gracefully until ctx expires, then by canceling
// them. The transport is closed last. Close is idempotent; it does not
// close the underlying service (the caller owns that lifecycle).
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.gossipStop)

	done := make(chan struct{})
	go func() {
		n.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		n.cancel()
		<-done
	}
	n.cancel()
	n.cfg.Transport.Close()
	return err
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
