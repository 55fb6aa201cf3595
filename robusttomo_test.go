package robusttomo

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"robusttomo/internal/cluster"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quickstart does: example network → candidate paths → failure model →
// robust selection → inference under a failure.
func TestFacadeEndToEnd(t *testing.T) {
	ex := NewExampleNetwork()
	paths, err := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}

	probs := make([]float64, pm.NumLinks())
	probs[ex.Bridge] = 0.3 // the bridge is flaky
	for i := range probs {
		if i != int(ex.Bridge) {
			probs[i] = 0.02
		}
	}
	model, err := FailureFromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}

	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = float64(100 * pm.Path(i).Hops())
	}
	res, err := SelectRobustPaths(pm, model, costs, 2400)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	if res.Cost > 2400 {
		t.Fatalf("cost %v over budget", res.Cost)
	}

	// Under the bridge failure the robust selection must still deliver
	// positive rank.
	sc := Scenario{Failed: make([]bool, pm.NumLinks())}
	sc.Failed[ex.Bridge] = true
	if rank := pm.RankUnder(res.Selected, sc); rank < 6 {
		t.Fatalf("rank under bridge failure = %d, want ≥ 6", rank)
	}
}

// TestFacadeRejectsBadPathIndices: the facade's system and reconstructor
// constructors return an error for a path index outside [0, NumPaths), and
// Reconstruct reports ok=false, instead of panicking.
func TestFacadeRejectsBadPathIndices(t *testing.T) {
	ex := NewExampleNetwork()
	paths, err := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, pm.NumPaths()} {
		if _, err := NewSystem(pm, []int{bad}, nil); err == nil {
			t.Fatalf("NewSystem accepted path index %d", bad)
		}
		if _, err := NewSystemTol(pm, []int{0, bad}, []float64{1, 1}, 1e-6); err == nil {
			t.Fatalf("NewSystemTol accepted path index %d", bad)
		}
		if _, err := NewReconstructor(pm, []int{bad}, []float64{1}); err == nil {
			t.Fatalf("NewReconstructor accepted path index %d", bad)
		}
	}
	rc, err := NewReconstructor(pm, []int{0, 1}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, pm.NumPaths()} {
		if _, ok := rc.Reconstruct(bad); ok {
			t.Fatalf("Reconstruct(%d) reported ok", bad)
		}
	}
}

func TestFacadeMonteCarloVariant(t *testing.T) {
	ex := NewExampleNetwork()
	paths, err := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	model, err := FailureFromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	res, err := SelectRobustPathsMC(pm, model, costs, 8, 100, NewRNG(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 || len(res.Selected) > 8 {
		t.Fatalf("selected %d paths", len(res.Selected))
	}
	// An empty scenario panel is an input error, not a panic.
	for _, runs := range []int{0, -1} {
		if _, err := SelectRobustPathsMC(pm, model, costs, 8, runs, NewRNG(1, 1)); err == nil {
			t.Errorf("SelectRobustPathsMC with %d runs returned no error", runs)
		}
	}
}

func TestFacadePresets(t *testing.T) {
	tp, err := PresetTopology("AS1755")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Graph.NumNodes() != 87 {
		t.Fatalf("nodes = %d", tp.Graph.NumNodes())
	}
	if _, err := PresetTopology("bogus"); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

func TestFacadePlacementAndSim(t *testing.T) {
	tp, err := GenerateTopology(TopologyConfig{Name: "t", Nodes: 30, Links: 60, PoPs: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlaceMonitors(PlacementConfig{Graph: tp.Graph, Candidates: tp.Access, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Monitors) != 6 || pl.Objective <= 0 {
		t.Fatalf("placement = %+v", pl)
	}

	paths, err := MonitorPairs(tp.Graph, pl.Monitors, pl.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, tp.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewFailureModel(FailureConfig{Links: tp.Graph.NumEdges(), ExpectedFailures: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	metrics := make([]float64, pm.NumLinks())
	for i := range metrics {
		metrics[i] = 1
	}
	runner, err := NewSimRunner(SimConfig{
		PM: pm, Costs: costs, Budget: 8, Metrics: metrics,
		Failures: model, Horizon: 30, Mode: SimStatic, Model: model, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runner.Run(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 30 {
		t.Fatalf("reports = %d", len(reports))
	}
}

func TestFacadeCorrelatedModel(t *testing.T) {
	base, err := FailureFromProbabilities([]float64{0.1, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := NewCorrelatedFailureModel(base, []SRLG{{Links: []int{0, 1}, Prob: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	scs := SampleScenarios(corr, NewRNG(1, 1), 5)
	if len(scs) != 5 {
		t.Fatalf("scenarios = %d", len(scs))
	}
	var _ FailureSampler = corr
}

func TestFacadeScenarioSources(t *testing.T) {
	ge, err := NewGilbertElliott(GilbertElliottConfig{
		Marginals: []float64{0.1, 0.2, 0.05}, MeanBurst: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var src ScenarioSource = ge
	snap := src.Snapshot()
	a := SampleScenarios(src, NewRNG(3, 3), 20)
	if err := src.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b := SampleScenarios(src, NewRNG(3, 3), 20)
	for e := range a {
		for l := range a[e].Failed {
			if a[e].Failed[l] != b[e].Failed[l] {
				t.Fatalf("epoch %d link %d diverged after restore", e, l)
			}
		}
	}

	nfm, err := NewNodeFailureModel(NodeFailureConfig{
		Links: 3, Incidence: [][]int{{0, 1}, {1, 2}}, NodeProbs: []float64{0.1, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var _ ScenarioSource = nfm

	built, err := NewScenarioSource(ScenarioSourceSpec{
		Source: "gilbert_elliott", Probs: []float64{0.1, 0.2}, MeanBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if built.SourceName() != "gilbert_elliott" {
		t.Fatalf("SourceName = %q", built.SourceName())
	}
	names := ScenarioSourceNames()
	if len(names) < 4 {
		t.Fatalf("registered sources = %v", names)
	}

	ex := NewExampleNetwork()
	paths, _ := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	pm, _ := NewPathMatrix(paths, ex.Graph.NumEdges())
	idx := make([]int, pm.NumPaths())
	for i := range idx {
		idx[i] = i
	}
	incidence := make([][]int, ex.Graph.NumNodes())
	for v := range incidence {
		for _, e := range ex.Graph.IncidentEdges(NodeID(v)) {
			incidence[v] = append(incidence[v], int(e))
		}
	}
	var ni NodeIdent
	ni, err = pm.NodeIdentifiability(idx, incidence)
	if err != nil {
		t.Fatal(err)
	}
	if ni.NumCovered == 0 {
		t.Fatal("probe set covers no nodes")
	}
}

func TestFacadeGreedyExplanation(t *testing.T) {
	ex := NewExampleNetwork()
	paths, _ := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	pm, _ := NewPathMatrix(paths, ex.Graph.NumEdges())
	sc := Scenario{Failed: make([]bool, pm.NumLinks())}
	sc.Failed[ex.Bridge] = true
	obs := Observation{}
	for i := 0; i < pm.NumPaths(); i++ {
		obs.Paths = append(obs.Paths, i)
		obs.OK = append(obs.OK, pm.Available(i, sc))
	}
	expl, err := GreedyExplanation(pm, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl) != 1 || expl[0] != int(ex.Bridge) {
		t.Fatalf("explanation = %v, want [%d]", expl, ex.Bridge)
	}
	minimal, err := MinimalExplanations(pm, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal) != 1 || len(minimal[0]) != 1 || minimal[0][0] != int(ex.Bridge) {
		t.Fatalf("minimal = %v", minimal)
	}
}

func TestFacadeLearner(t *testing.T) {
	ex := NewExampleNetwork()
	paths, _ := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	pm, _ := NewPathMatrix(paths, ex.Graph.NumEdges())
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.1
	}
	model, _ := FailureFromProbabilities(probs)
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	learner, err := NewLearner(pm, costs, 5, LearnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewFailureEnv(pm, model, NewRNG(2, 2))
	for e := 0; e < 50; e++ {
		if _, _, err := learner.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := learner.Exploit()
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("learner selected nothing")
	}
	theta := learner.ThetaHat()
	mean := 0.0
	for _, v := range theta {
		mean += v
	}
	mean /= float64(len(theta))
	if math.IsNaN(mean) || mean <= 0 {
		t.Fatalf("learned availabilities look wrong: %v", theta)
	}
}

// TestFacadeCtxSelection covers the context-aware selection entry points:
// a live context matches the non-ctx wrappers exactly, and a cancelled one
// aborts with context.Canceled for both the deterministic and Monte Carlo
// variants.
func TestFacadeCtxSelection(t *testing.T) {
	ex := NewExampleNetwork()
	paths, err := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	model, err := FailureFromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}

	plain, err := SelectRobustPaths(pm, model, costs, 8)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := SelectRobustPathsCtx(context.Background(), pm, model, costs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Selected) != len(withCtx.Selected) || plain.Objective != withCtx.Objective {
		t.Fatalf("ctx variant diverged: %+v vs %+v", plain, withCtx)
	}
	for i := range plain.Selected {
		if plain.Selected[i] != withCtx.Selected[i] {
			t.Fatalf("selection diverged at %d: %v vs %v", i, plain.Selected, withCtx.Selected)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectRobustPathsCtx(cancelled, pm, model, costs, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectRobustPathsCtx under cancelled ctx: %v", err)
	}
	if _, err := SelectRobustPathsMCCtx(cancelled, pm, model, costs, 8, 50, NewRNG(1, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectRobustPathsMCCtx under cancelled ctx: %v", err)
	}
}

// TestFacadeFaultToleranceSurface smoke-tests the re-exported collection
// API: a NOC over a dead monitor degrades with the re-exported sentinels
// and typed error.
func TestFacadeFaultToleranceSurface(t *testing.T) {
	paths := []Path{{Src: 0, Dst: 1, Edges: []EdgeID{0}}}
	pm, err := NewPathMatrix(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEpochOracle([]float64{2.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := StartMonitor("m", "127.0.0.1:0", oracle)
	if err != nil {
		t.Fatal(err)
	}
	addr := mon.Addr()
	mon.Close() // dead monitor: every dial refused

	if got := DefaultRetryPolicy().MaxAttempts; got != 3 {
		t.Fatalf("DefaultRetryPolicy().MaxAttempts = %d", got)
	}
	noc, err := NewStreamNOC(StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"m": addr},
		SourceOf: func(int) string { return "m" },
		Retry:    RetryPolicy{MaxAttempts: 2},
		Breaker:  DefaultBreakerPolicy(),
		Timeouts: CollectorTimeouts{Dial: 200 * time.Millisecond, Exchange: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer noc.Close()
	ms, err := noc.CollectEpoch(context.Background(), 0, []int{0})
	if len(ms) != 0 {
		t.Fatalf("measurements from a dead monitor: %v", ms)
	}
	if !errors.Is(err, ErrMonitorUnreachable) {
		t.Fatalf("error %v does not wrap ErrMonitorUnreachable", err)
	}
	var cerr *CollectionError
	if !errors.As(err, &cerr) {
		t.Fatalf("error %T is not a *CollectionError", err)
	}
	if got := cerr.FailedMonitors(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("FailedMonitors = %v", got)
	}
	if st := noc.BreakerStates()["m"]; st != BreakerClosed && st != BreakerOpen {
		t.Fatalf("unexpected breaker state %v", st)
	}
}

// TestFacadeStreamingSurface smoke-tests the re-exported streaming plane:
// a StreamNOC over a live monitor assembles a complete epoch, and the
// encoding parser round-trips both frame codecs.
func TestFacadeStreamingSurface(t *testing.T) {
	for _, want := range []FrameEncoding{FrameBinary, FrameJSON} {
		got, err := ParseFrameEncoding(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseFrameEncoding(%q) = %v, %v", want.String(), got, err)
		}
	}

	paths := []Path{{Src: 0, Dst: 1, Edges: []EdgeID{0}}, {Src: 0, Dst: 2, Edges: []EdgeID{1}}}
	pm, err := NewPathMatrix(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEpochOracle([]float64{2.5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := StartMonitor("m", "127.0.0.1:0", oracle)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	s, err := NewStreamNOC(StreamConfig{
		PM:        pm,
		Monitors:  map[string]string{"m": mon.Addr()},
		SourceOf:  func(int) string { return "m" },
		Watermark: 3 * time.Second,
		Timeouts:  CollectorTimeouts{Dial: 2 * time.Second, Exchange: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var epoch AssembledEpoch
	epoch, err = s.CollectAssembled(context.Background(), 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(epoch.Measurements) != 2 || len(epoch.Missing) != 0 || len(epoch.Late) != 0 {
		t.Fatalf("assembled epoch = %+v", epoch)
	}
	if epoch.Measurements[0].Value != 2.5 || epoch.Measurements[1].Value != 4 {
		t.Fatalf("measurements = %+v", epoch.Measurements)
	}
	if errors.Is(ErrWatermark, ErrBackpressure) {
		t.Fatal("streaming sentinels alias each other")
	}
}

// TestFacadeObservability wires an Observer through the public surface:
// selection metrics land in the registry, the Prometheus text is
// well-formed, and spans record into the event ring.
func TestFacadeObservability(t *testing.T) {
	ex := NewExampleNetwork()
	paths, err := MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	model, err := FailureFromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}

	reg := NewObserver()
	opts := DefaultSelectionOptions()
	opts.Observer = reg
	res, err := RoMe(pm, costs, 8, NewProbBoundOracle(pm, model), opts)
	if err != nil {
		t.Fatal(err)
	}

	// The same run without an Observer must select identically:
	// instrumentation is read-only.
	plain, err := RoMe(pm, costs, 8, NewProbBoundOracle(pm, model), DefaultSelectionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Selected) != len(res.Selected) || plain.GainEvaluations != res.GainEvaluations {
		t.Fatalf("observed run diverged: %v vs %v", res, plain)
	}

	text := reg.PrometheusText()
	for _, want := range []string{
		"# TYPE tomo_selection_runs_total counter",
		"tomo_selection_runs_total 1",
		"tomo_selection_gain_evaluations_total",
		"# TYPE tomo_selection_run_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	sp := reg.StartSpan("facade.work")
	sp.End()
	events := reg.Events()
	if len(events) == 0 || events[len(events)-1].Name != "facade.work" {
		t.Fatalf("span did not land in the event ring: %+v", events)
	}
}

// TestFacadeClusterSurface stands a 2-node ring up through the public
// names: ring construction, peer validation, node construction over the
// in-process transport, a forwarded submission answered with the
// owner's bytes, cluster-wide stats, and the typed config error.
func TestFacadeClusterSurface(t *testing.T) {
	if r := NewClusterRing([]string{"a", "b", "c"}, 0); len(r.Members()) != 3 {
		t.Fatalf("NewClusterRing members = %v", r.Members())
	}
	if err := ValidateClusterPeers("a:1", []string{"a:1"}); err == nil {
		t.Fatal("self-addressed peer accepted")
	} else {
		var ce *ClusterConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("err %v (%T) is not a *ClusterConfigError", err, err)
		}
	}

	tr := cluster.NewLoopbackTransport()
	addrs := []string{"facade-a", "facade-b"}
	nodes := make([]*ClusterNode, 2)
	svcs := make([]*SelectionService, 2)
	for i := range nodes {
		svcs[i] = NewSelectionService(SelectionServiceConfig{Workers: 2})
		n, err := NewClusterNode(ClusterConfig{
			Self:           addrs[i],
			Peers:          []string{addrs[1-i]},
			GossipInterval: -1,
			Service:        svcs[i],
			Transport:      tr,
		})
		if err != nil {
			t.Fatalf("NewClusterNode %d: %v", i, err)
		}
		nodes[i] = n
		tr.Register(addrs[i], n)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := range nodes {
			nodes[i].Close(ctx)
			svcs[i].Close(ctx)
		}
	}()

	spec := SelectionJobSpec{
		Links:     6,
		Paths:     [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}},
		Probs:     []float64{0.1, 0.05, 0.2, 0.1, 0.15, 0.08},
		Budget:    4,
		Algorithm: "probrome",
	}
	key, err := spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := nodes[0].Ring().Owner(key, nil)
	if !ok {
		t.Fatal("ring has no owner")
	}
	submitAt := 0
	if owner == addrs[0] {
		submitAt = 1 // force the forwarded path
	}
	out, err := nodes[submitAt].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	st, err := nodes[submitAt].Wait(wctx, out.ID)
	if err != nil || st.State != JobDone {
		t.Fatalf("forwarded job state %v, err %v", st.State, err)
	}
	if _, err := nodes[submitAt].Result(out.ID); err != nil {
		t.Fatalf("Result: %v", err)
	}
	var snap ClusterSnapshot = nodes[submitAt].ClusterStats(context.Background())
	if snap.Totals.Nodes != 2 || snap.Totals.Forwards != 1 {
		t.Fatalf("cluster snapshot totals %+v", snap.Totals)
	}

	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if err := nodes[submitAt].Close(cctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := nodes[submitAt].Submit(spec); !errors.Is(err, ErrClusterNodeClosed) {
		t.Fatalf("submit after close = %v, want ErrClusterNodeClosed", err)
	}
}
