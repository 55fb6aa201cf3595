package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/engine"
	"robusttomo/internal/service"

	_ "robusttomo/internal/selection" // registers the selection engine
)

// clusterSpec returns a small valid instance; vary n to vary the
// canonical key (the budget perturbation keeps the instance valid while
// giving every n a distinct key, hence a distinct ring position).
func clusterSpec(n int) service.JobSpec {
	return service.JobSpec{
		Links:     6,
		Paths:     [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {0, 1, 2}, {3, 4, 5}},
		Probs:     []float64{0.1, 0.05, 0.2, 0.1, 0.15, 0.08},
		Costs:     []float64{1, 1, 2, 1, 1, 2, 3, 3},
		Budget:    4 + float64(n)*0.125,
		Algorithm: service.AlgProbRoMe,
	}
}

type testCluster struct {
	tr    *LoopbackTransport
	addrs []string
	nodes []*Node
	svcs  []*service.Service
}

// newTestCluster builds a size-node in-process cluster on one loopback
// fabric: every node sees every other as a peer, gossip loops are off
// (tests drive GossipOnce deterministically), breakers trip on the
// first failure and stay open (an hour's cooldown) so liveness flips
// are deterministic too.
func newTestCluster(t testing.TB, size int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{tr: NewLoopbackTransport()}
	for i := 0; i < size; i++ {
		tc.addrs = append(tc.addrs, fmt.Sprintf("node%02d", i))
	}
	for i := 0; i < size; i++ {
		svc := service.New(service.Config{Workers: 2, QueueDepth: 256})
		var peers []string
		for j, a := range tc.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{
			Self:           tc.addrs[i],
			Peers:          peers,
			HedgeAfter:     25 * time.Millisecond,
			CallTimeout:    5 * time.Second,
			GossipInterval: -1,
			Breaker:        agent.BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour},
			Service:        svc,
			Transport:      tc.tr,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("New(node %d): %v", i, err)
		}
		tc.tr.Register(tc.addrs[i], n)
		tc.nodes = append(tc.nodes, n)
		tc.svcs = append(tc.svcs, svc)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for _, n := range tc.nodes {
			n.Close(ctx)
		}
		for _, s := range tc.svcs {
			s.Close(ctx)
		}
	})
	return tc
}

func closeService(t testing.TB, s *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Close(ctx)
}

// ownerIndex returns which node owns spec with everyone alive.
func ownerIndex(t testing.TB, tc *testCluster, spec service.JobSpec) int {
	t.Helper()
	key, err := spec.CanonicalKey()
	if err != nil {
		t.Fatalf("CanonicalKey: %v", err)
	}
	owner, ok := tc.nodes[0].Ring().Owner(key, nil)
	if !ok {
		t.Fatal("no ring owner")
	}
	for i, a := range tc.addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q not a member", owner)
	return -1
}

// specOwnedBy scans spec variants until one is owned by want.
func specOwnedBy(t testing.TB, tc *testCluster, want int) service.JobSpec {
	t.Helper()
	for n := 0; n < 1000; n++ {
		if spec := clusterSpec(n); ownerIndex(t, tc, spec) == want {
			return spec
		}
	}
	t.Fatalf("no spec owned by node %d in 1000 tries", want)
	return service.JobSpec{}
}

// specNotOwnedBy scans spec variants until one is NOT owned by not.
func specNotOwnedBy(t testing.TB, tc *testCluster, not int) service.JobSpec {
	t.Helper()
	for n := 0; n < 1000; n++ {
		if spec := clusterSpec(n); ownerIndex(t, tc, spec) != not {
			return spec
		}
	}
	t.Fatalf("every spec owned by node %d in 1000 tries", not)
	return service.JobSpec{}
}

// referenceJSON runs spec on a fresh single-node service and returns
// the result's JSON — the bytes every cluster path must reproduce.
func referenceJSON(t testing.TB, spec service.JobSpec) []byte {
	t.Helper()
	svc := service.New(service.Config{Workers: 1})
	defer closeService(t, svc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("reference resolve: %v", err)
	}
	res, err := svc.SubmitAndWait(ctx, r)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal reference: %v", err)
	}
	return b
}

func waitResult(t testing.TB, n *Node, id string) engine.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	st, err := n.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s) on %s: %v", id[:8], n.Self(), err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job %s on %s ended %s: %s", id[:8], n.Self(), st.State, st.Error)
	}
	res, err := n.Result(id)
	if err != nil {
		t.Fatalf("Result(%s) on %s: %v", id[:8], n.Self(), err)
	}
	return res
}

func checkInvariant(t testing.TB, st NodeStats) {
	t.Helper()
	if got := st.CacheHits + st.Owned + st.Forwards + st.ForwardDedup + st.Shed + st.Rejected; got != st.Submitted {
		t.Fatalf("%s disposition ledger broken: submitted=%d but cacheHits=%d owned=%d forwards=%d dedup=%d shed=%d rejected=%d (sum %d)",
			st.Self, st.Submitted, st.CacheHits, st.Owned, st.Forwards, st.ForwardDedup, st.Shed, st.Rejected, got)
	}
}

func checkDrainedInvariant(t testing.TB, st NodeStats) {
	t.Helper()
	checkInvariant(t, st)
	if got := st.ForwardWins + st.HedgeWins + st.Fallbacks + st.ForwardErrors; got != st.Forwards {
		t.Fatalf("%s completion ledger broken after drain: forwards=%d but wins=%d hedgeWins=%d fallbacks=%d errors=%d (sum %d)",
			st.Self, st.Forwards, st.ForwardWins, st.HedgeWins, st.Fallbacks, st.ForwardErrors, got)
	}
}

// TestClusterExactlyOnceBitIdentical is the acceptance core: one
// identical job submitted concurrently to all three peers executes
// exactly once cluster-wide, and every peer returns bytes bit-identical
// to a single-node run.
func TestClusterExactlyOnceBitIdentical(t *testing.T) {
	spec := clusterSpec(1)
	ref := referenceJSON(t, spec)
	tc := newTestCluster(t, 3, nil)

	var wg sync.WaitGroup
	ids := make([]string, 3)
	errs := make([]error, 3)
	for i, n := range tc.nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			out, err := n.Submit(spec)
			ids[i], errs[i] = out.ID, err
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit on node %d: %v", i, err)
		}
	}

	for i, n := range tc.nodes {
		res := waitResult(t, n, ids[i])
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal result from node %d: %v", i, err)
		}
		if string(got) != string(ref) {
			t.Fatalf("node %d result diverges from single-node run:\n got  %s\n want %s", i, got, ref)
		}
	}

	var executed uint64
	for _, s := range tc.svcs {
		executed += s.Stats().Executed
	}
	if executed != 1 {
		t.Fatalf("cluster executed the job %d times, want exactly once", executed)
	}
	for _, n := range tc.nodes {
		checkInvariant(t, n.Stats())
	}
}

// TestClusterKilledOwnerHedges kills the ring owner mid-flight (it
// accepts the connection and never answers); the hedge leg to the
// successor replica must still complete the job with the right bytes.
func TestClusterKilledOwnerHedges(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	spec := specNotOwnedBy(t, tc, 0)
	owner := ownerIndex(t, tc, spec)
	ref := referenceJSON(t, spec)

	tc.tr.SetHang(tc.addrs[owner], true)
	out, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := waitResult(t, tc.nodes[0], out.ID)
	got, _ := json.Marshal(res)
	if string(got) != string(ref) {
		t.Fatalf("hedged result diverges:\n got  %s\n want %s", got, ref)
	}

	st := tc.nodes[0].Stats()
	if st.Hedges == 0 {
		t.Fatalf("no hedge fired against a hung owner: %+v", st)
	}
	if st.HedgeWins+st.Fallbacks == 0 {
		t.Fatalf("hung owner's job completed without the hedge or fallback winning: %+v", st)
	}
	if tc.svcs[owner].Stats().Executed != 0 {
		t.Fatal("hung owner still executed the job")
	}
}

// TestClusterDeadOwnerFailsFast: a down owner fails the primary leg
// immediately, the hedge fires without waiting for HedgeAfter, and the
// owner's breaker trips so the NEXT submission routes around it
// entirely (no forward attempt at all).
func TestClusterDeadOwnerFailsFast(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	spec := specNotOwnedBy(t, tc, 0)
	owner := ownerIndex(t, tc, spec)
	tc.tr.SetDown(tc.addrs[owner], true)

	out, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitResult(t, tc.nodes[0], out.ID)

	st := tc.nodes[0].Stats()
	if st.Hedges != 1 || st.HedgeWins+st.Fallbacks != 1 {
		t.Fatalf("dead owner should be rescued by the hedge/fallback: %+v", st)
	}

	// Breaker tripped (threshold 1): the owner now reads dead, so a
	// fresh spec it used to own routes straight to the successor.
	found := false
	for _, p := range st.Peers {
		if p.Addr == tc.addrs[owner] && p.State == "open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("owner breaker not open after transport failure: %+v", st.Peers)
	}
	key, _ := spec.CanonicalKey()
	if o, ok := tc.nodes[0].Ring().Owner(key, tc.nodes[0].alive); !ok || o == tc.addrs[owner] {
		t.Fatalf("dead owner %q still owns the key", tc.addrs[owner])
	}
}

// TestClusterForwardDedup: identical concurrent submissions at the same
// non-owner coalesce onto one forward.
func TestClusterForwardDedup(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	spec := specNotOwnedBy(t, tc, 0)
	owner := ownerIndex(t, tc, spec)
	tc.tr.SetDelay(tc.addrs[owner], 50*time.Millisecond)

	out1, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	out2, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if !out2.Deduped {
		t.Fatalf("second submission not deduped: %+v", out2)
	}
	if out1.ID != out2.ID {
		t.Fatalf("dedup changed the ID: %s vs %s", out1.ID, out2.ID)
	}
	waitResult(t, tc.nodes[0], out1.ID)
	st := tc.nodes[0].Stats()
	if st.Forwards != 1 || st.ForwardDedup != 1 {
		t.Fatalf("want 1 forward + 1 dedup, got %+v", st)
	}
}

// TestClusterCacheFill: a completed forward installs the owner's bytes
// locally, so resubmitting the same job at the non-owner is a local
// cache hit — no second forward, no peer traffic.
func TestClusterCacheFill(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	spec := specNotOwnedBy(t, tc, 0)

	out, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	first := waitResult(t, tc.nodes[0], out.ID)

	again, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.Cached {
		t.Fatalf("resubmission after cache-fill not served from cache: %+v", again)
	}
	second, err := tc.nodes[0].Result(again.ID)
	if err != nil {
		t.Fatalf("Result after cache hit: %v", err)
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(second)
	if string(b1) != string(b2) {
		t.Fatal("cache-filled bytes diverge from the forwarded result")
	}

	st := tc.nodes[0].Stats()
	if st.Forwards != 1 {
		t.Fatalf("resubmission forwarded again: %+v", st)
	}
	if st.CacheHits != 1 || st.RemoteFills != 1 {
		t.Fatalf("want 1 cache hit + 1 remote fill, got %+v", st)
	}
	if fs := tc.nodes[0].svc.Stats().Filled; fs != 1 {
		t.Fatalf("service filled counter = %d, want 1", fs)
	}
}

// TestClusterCacheProbeOp exercises the OpCacheProbe peer path
// directly: hit after the owner computed, miss on a cold key.
func TestClusterCacheProbeOp(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	spec := specOwnedBy(t, tc, 1)
	key, _ := spec.CanonicalKey()

	ctx := context.Background()
	resp, err := tc.tr.Call(ctx, tc.addrs[1], &PeerRequest{Op: OpCacheProbe, Key: key, Origin: tc.addrs[0]})
	if err != nil || resp.Status != StatusMiss {
		t.Fatalf("cold probe = %v/%v, want miss", resp, err)
	}

	out, err := tc.nodes[1].Submit(spec)
	if err != nil {
		t.Fatalf("owner Submit: %v", err)
	}
	waitResult(t, tc.nodes[1], out.ID)

	resp, err = tc.tr.Call(ctx, tc.addrs[1], &PeerRequest{Op: OpCacheProbe, Key: key, Origin: tc.addrs[0]})
	if err != nil || resp.Status != StatusOK || len(resp.Payload) == 0 {
		t.Fatalf("warm probe = %v/%v, want OK with payload", resp, err)
	}
}

// TestClusterGossipMarksDeadAndRecovers drives the health-gossip loop
// deterministically: a down peer's breaker opens after one failed ping,
// its key range moves to the successor (served locally, no forward),
// and once the peer returns and the cooldown elapses, a gossip probe
// closes the breaker and routing resumes.
func TestClusterGossipMarksDeadAndRecovers(t *testing.T) {
	tc := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.Breaker = agent.BreakerPolicy{FailureThreshold: 1, Cooldown: 30 * time.Millisecond}
	})
	ctx := context.Background()

	tc.tr.SetDown(tc.addrs[1], true)
	tc.nodes[0].GossipOnce(ctx)
	if tc.nodes[0].alive(tc.addrs[1]) {
		t.Fatal("peer still alive after failed gossip ping")
	}

	// The dead peer's keys are served locally now.
	spec := specOwnedBy(t, tc, 1)
	out, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit with dead owner: %v", err)
	}
	waitResult(t, tc.nodes[0], out.ID)
	st := tc.nodes[0].Stats()
	if st.Forwards != 0 || st.Owned != 1 {
		t.Fatalf("dead-owner submit should run locally without forwarding: %+v", st)
	}

	// Recovery: peer back up, cooldown elapsed, one gossip probe heals.
	tc.tr.SetDown(tc.addrs[1], false)
	time.Sleep(40 * time.Millisecond)
	tc.nodes[0].GossipOnce(ctx)
	if !tc.nodes[0].alive(tc.addrs[1]) {
		t.Fatal("peer still dead after successful gossip probe")
	}
	spec2 := specOwnedBy(t, tc, 1)
	for n := 0; n < 1000; n++ {
		spec2 = clusterSpec(n)
		if ownerIndex(t, tc, spec2) == 1 {
			if key, _ := spec2.CanonicalKey(); func() bool {
				_, known := tc.nodes[0].svc.CachedResult(key)
				return !known
			}() {
				break
			}
		}
	}
	out2, err := tc.nodes[0].Submit(spec2)
	if err != nil {
		t.Fatalf("Submit after recovery: %v", err)
	}
	waitResult(t, tc.nodes[0], out2.ID)
	if st := tc.nodes[0].Stats(); st.Forwards == 0 {
		t.Fatalf("recovered peer not routed to: %+v", st)
	}
}

// TestClusterCancelForward cancels an in-flight forward against a hung
// owner: the job must reach a canceled terminal state promptly instead
// of riding out the call timeout.
func TestClusterCancelForward(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.HedgeAfter = 10 * time.Second // keep the hedge out of this test
	})
	spec := specNotOwnedBy(t, tc, 0)
	owner := ownerIndex(t, tc, spec)
	tc.tr.SetHang(tc.addrs[owner], true)
	// The successor may also be remote; hang it too so nothing answers.
	for i := range tc.addrs {
		if i != 0 {
			tc.tr.SetHang(tc.addrs[i], true)
		}
	}

	out, err := tc.nodes[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := tc.nodes[0].Cancel(out.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := tc.nodes[0].Wait(ctx, out.ID)
	if err != nil {
		t.Fatalf("Wait after cancel: %v", err)
	}
	if st.State != service.StateCanceled {
		t.Fatalf("canceled forward ended %s (%s), want canceled", st.State, st.Error)
	}
	checkDrainedInvariant(t, tc.nodes[0].Stats())
}

// TestClusterStatsSnapshotUnderConcurrentSubmitClose hammers Submit
// from many goroutines while snapshots are taken and one node closes
// mid-flight: every snapshot must satisfy the disposition invariant
// (the counters move under one mutex), and after Close drains, the
// completion ledger must balance too.
func TestClusterStatsSnapshotUnderConcurrentSubmitClose(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for _, n := range tc.nodes {
		snapWG.Add(1)
		go func(n *Node) {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					checkInvariant(t, n.Stats())
				}
			}
		}(n)
	}

	var subWG sync.WaitGroup
	for g := 0; g < 8; g++ {
		subWG.Add(1)
		go func(g int) {
			defer subWG.Done()
			for i := 0; i < 60; i++ {
				n := tc.nodes[(g+i)%len(tc.nodes)]
				out, err := n.Submit(clusterSpec(i % 10))
				if err != nil {
					if errors.Is(err, ErrNodeClosed) || errors.Is(err, service.ErrClosed) || errors.Is(err, service.ErrOverloaded) {
						continue // counted as rejected/shed; the ledger covers it
					}
					t.Errorf("Submit: %v", err)
					return
				}
				if g == 0 && i%7 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					n.Wait(ctx, out.ID)
					cancel()
				}
			}
		}(g)
	}

	// Close one node while submissions are still flowing.
	time.Sleep(5 * time.Millisecond)
	closeCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := tc.nodes[2].Close(closeCtx); err != nil {
		t.Errorf("Close: %v", err)
	}
	checkDrainedInvariant(t, tc.nodes[2].Stats())

	subWG.Wait()
	close(stop)
	snapWG.Wait()

	for _, n := range tc.nodes {
		n.Close(closeCtx)
		checkDrainedInvariant(t, n.Stats())
	}
}

// TestClusterStatsAggregation: the cluster-wide snapshot carries every
// reachable peer's ledger and lists unreachable ones instead of
// failing.
func TestClusterStatsAggregation(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	out, err := tc.nodes[0].Submit(clusterSpec(0))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitResult(t, tc.nodes[0], out.ID)

	snap := tc.nodes[0].ClusterStats(context.Background())
	if snap.Totals.Nodes != 3 || len(snap.Nodes) != 3 {
		t.Fatalf("want 3 reachable nodes, got %+v", snap.Totals)
	}
	if snap.Totals.Submitted == 0 {
		t.Fatalf("aggregate lost the submission: %+v", snap.Totals)
	}

	tc.tr.SetDown(tc.addrs[2], true)
	snap = tc.nodes[0].ClusterStats(context.Background())
	if snap.Totals.Nodes != 2 || len(snap.Unreachable) != 1 || snap.Unreachable[0] != tc.addrs[2] {
		t.Fatalf("down peer not reported unreachable: %+v / %v", snap.Totals, snap.Unreachable)
	}
}

// TestClusterNodeClosedSubmit: submissions after Close fail typed and
// are still accounted.
func TestClusterNodeClosedSubmit(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.nodes[0].Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := tc.nodes[0].Submit(clusterSpec(0)); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("Submit after Close = %v, want ErrNodeClosed", err)
	}
	st := tc.nodes[0].Stats()
	if st.Rejected != 1 {
		t.Fatalf("closed-node submit not counted rejected: %+v", st)
	}
	checkDrainedInvariant(t, st)
}

// TestClusterInvalidSpecRejected: an unresolvable spec fails at the
// routing boundary, before any peer traffic.
func TestClusterInvalidSpecRejected(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	_, err := tc.nodes[0].Submit(service.JobSpec{Engine: "no-such-engine"})
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	st := tc.nodes[0].Stats()
	if st.Rejected != 1 || st.Forwards != 0 {
		t.Fatalf("invalid spec should count rejected with no forwards: %+v", st)
	}
}

// TestRawResult covers the remote-payload Result adapter.
func TestRawResult(t *testing.T) {
	r := rawResult(`{"a":1}`)
	if r.SizeBytes() != 7 {
		t.Fatalf("SizeBytes = %d", r.SizeBytes())
	}
	c := r.Clone().(rawResult)
	c[0] = 'X'
	if r[0] == 'X' {
		t.Fatal("Clone shares memory with the original")
	}
	b, err := json.Marshal(r)
	if err != nil || string(b) != `{"a":1}` {
		t.Fatalf("MarshalJSON = %s, %v — must be the verbatim payload", b, err)
	}
	if b, _ := json.Marshal(rawResult(nil)); string(b) != "null" {
		t.Fatalf("empty payload marshals %s, want null", b)
	}
}
