package sim

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

func exampleConfig(t *testing.T, mode Mode) Config {
	t.Helper()
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := tomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	probs[ex.Bridge] = 0.3
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	metrics := make([]float64, pm.NumLinks())
	for i := range metrics {
		metrics[i] = 1 + float64(i)*0.5
	}
	return Config{
		PM:       pm,
		Costs:    costs,
		Budget:   10,
		Metrics:  metrics,
		Failures: model,
		Horizon:  300,
		Mode:     mode,
		Model:    model,
		Seed:     4,
	}
}

func TestNewValidation(t *testing.T) {
	good := exampleConfig(t, Static)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil pm", func(c *Config) { c.PM = nil }},
		{"bad costs", func(c *Config) { c.Costs = c.Costs[:1] }},
		{"bad metrics", func(c *Config) { c.Metrics = c.Metrics[:2] }},
		{"nil failures", func(c *Config) { c.Failures = nil }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"bad mode", func(c *Config) { c.Mode = 0 }},
		// A bare Sampler exposes no marginals, so Static mode cannot
		// derive a selection model (a ScenarioSource could — see
		// TestStaticModeDerivesModelFromSource).
		{"static without model", func(c *Config) {
			c.Model = nil
			c.Failures = bareSampler{c.Failures}
		}},
		{"bad scenario spec", func(c *Config) {
			c.Failures = nil
			c.Scenario = &failure.SourceSpec{Source: "no-such-process"}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := exampleConfig(t, Static)
			_ = good
			m.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	// Mismatched failure process size.
	cfg := exampleConfig(t, Static)
	small, _ := failure.FromProbabilities([]float64{0.1})
	cfg.Failures = small
	if _, err := New(cfg); err == nil {
		t.Fatal("failure size mismatch accepted")
	}
}

func TestStaticLoopInfersMetrics(t *testing.T) {
	cfg := exampleConfig(t, Static)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StaticSelection()) == 0 {
		t.Fatal("static selection empty")
	}
	if r.Learner() != nil {
		t.Fatal("static mode has a learner")
	}
	ctx := context.Background()
	reports, err := r.Run(ctx, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 200 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, rep := range reports {
		if rep.Epoch != i {
			t.Fatalf("epoch numbering broken at %d: %+v", i, rep)
		}
		if rep.Survived > rep.Probed {
			t.Fatalf("survived %d > probed %d", rep.Survived, rep.Probed)
		}
		if rep.Rank > rep.Survived {
			t.Fatalf("rank %d > survived %d", rep.Rank, rep.Survived)
		}
	}
	values, ident, err := r.Estimates(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for j := range cfg.Metrics {
		if !ident[j] {
			continue
		}
		hits++
		if math.Abs(values[j]-cfg.Metrics[j]) > 1e-8 {
			t.Fatalf("link %d inferred %v, want %v", j, values[j], cfg.Metrics[j])
		}
	}
	if hits < 6 {
		t.Fatalf("only %d links identified over 200 epochs", hits)
	}
}

func TestLearningLoopConverges(t *testing.T) {
	cfg := exampleConfig(t, Learning)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Learner() == nil {
		t.Fatal("learning mode without learner")
	}
	ctx := context.Background()
	reports, err := r.Run(ctx, 250)
	if err != nil {
		t.Fatal(err)
	}
	// Later epochs should deliver at least as much rank on average as the
	// earliest ones.
	early, late := 0.0, 0.0
	for _, rep := range reports[:50] {
		early += float64(rep.Rank)
	}
	for _, rep := range reports[len(reports)-50:] {
		late += float64(rep.Rank)
	}
	if late < early-50 { // allow noise, forbid collapse
		t.Fatalf("rank collapsed: early %v, late %v", early/50, late/50)
	}
	counts := r.Learner().Counts()
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("path %d never probed during learning", i)
		}
	}
}

func TestLocalizationFlagsBridge(t *testing.T) {
	cfg := exampleConfig(t, Static)
	// Deterministic failure process: bridge down every epoch.
	ex := topo.NewExample()
	probs := make([]float64, cfg.PM.NumLinks())
	probs[ex.Bridge] = 0.999999
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = model
	// Probe everything so localization has full visibility.
	cfg.Budget = float64(cfg.PM.NumPaths())
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Implicated) != 1 || rep.Implicated[0] != int(ex.Bridge) {
		t.Fatalf("Implicated = %v, want [%d]", rep.Implicated, ex.Bridge)
	}
}

func TestHorizonExhaustion(t *testing.T) {
	cfg := exampleConfig(t, Static)
	cfg.Horizon = 2
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(ctx); err == nil {
		t.Fatal("step beyond horizon accepted")
	}
}

func exampleConfigFixedHorizon(t *testing.T, horizon int) Config {
	cfg := exampleConfig(t, Static)
	cfg.Horizon = horizon
	return cfg
}

// exampleSrcOf maps a path of the example network to its source monitor.
func exampleSrcOf(pm *tomo.PathMatrix) func(int) string {
	ex := topo.NewExample()
	return func(p int) string { return ex.Graph.Label(pm.Path(p).Src) }
}

// exampleMonitors starts one TCP monitor per example-network monitor node,
// answering from r's oracle, and returns the NOC address map. The monitor
// named dead is closed at once (its address stays in the map, so dials
// are refused); wrap, when non-nil, wraps every listener.
func exampleMonitors(t *testing.T, r *Runner, dead string, wrap func(net.Listener) net.Listener) map[string]string {
	t.Helper()
	ex := topo.NewExample()
	addrs := map[string]string{}
	for _, mn := range ex.Monitors {
		name := ex.Graph.Label(mn)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			ln = wrap(ln)
		}
		mon, err := agent.StartMonitorOn(name, ln, r.Oracle())
		if err != nil {
			t.Fatal(err)
		}
		addrs[name] = mon.Addr()
		if name == dead {
			mon.Close()
		} else {
			t.Cleanup(func() { mon.Close() })
		}
	}
	return addrs
}

// newStreamNOC builds a StreamNOC closed on cleanup.
func newStreamNOC(t *testing.T, cfg agent.StreamConfig) *agent.StreamNOC {
	t.Helper()
	snoc, err := agent.NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snoc.Close() })
	return snoc
}

// useStreamNOC wires a StreamNOC over addrs into r, closed on cleanup.
func useStreamNOC(t *testing.T, r *Runner, cfg agent.StreamConfig) {
	t.Helper()
	if err := r.UseCollector(newStreamNOC(t, cfg)); err != nil {
		t.Fatal(err)
	}
}

// TestUseCollectorTCP runs the loop over real TCP monitors: UseCollector
// rejects nil, and epoch-for-epoch results match the local collector.
func TestUseCollectorTCP(t *testing.T) {
	cfg := exampleConfigFixedHorizon(t, 5)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.UseCollector(nil); err == nil {
		t.Fatal("nil collector accepted")
	}
	noc := newStreamNOC(t, agent.StreamConfig{
		PM:       cfg.PM,
		Monitors: exampleMonitors(t, r, "", nil),
		SourceOf: exampleSrcOf(cfg.PM),
	})
	if err := r.UseCollector(noc); err != nil {
		t.Fatal(err)
	}

	reports, err := r.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	local, err := New(exampleConfigFixedHorizon(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	localReports, err := local.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if reports[i].Rank != localReports[i].Rank || reports[i].Survived != localReports[i].Survived {
			t.Fatalf("epoch %d: TCP %+v vs local %+v", i, reports[i], localReports[i])
		}
	}
}

// TestRunnerSurvivesDeadMonitor is the degradation acceptance test with
// the default watermark: with one TCP monitor down for the whole run,
// Runner.Run still completes all epochs, the dead monitor's paths read as
// failed paths, and per-epoch collection health lands in
// EpochReport.Collection.
func TestRunnerSurvivesDeadMonitor(t *testing.T) {
	cfg := exampleConfigFixedHorizon(t, 4)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcOf := exampleSrcOf(cfg.PM)
	// Kill the monitor sourcing the first selected path so every epoch is
	// guaranteed to lose at least one path.
	dead := srcOf(r.StaticSelection()[0])
	noc := newStreamNOC(t, agent.StreamConfig{
		PM:       cfg.PM,
		Monitors: exampleMonitors(t, r, dead, nil),
		SourceOf: srcOf,
		Retry:    agent.RetryPolicy{MaxAttempts: 2},
		Breaker:  agent.BreakerPolicy{Disabled: true},
		Timeouts: agent.Timeouts{Dial: 300 * time.Millisecond, Exchange: time.Second},
	})
	if err := r.UseCollector(noc); err != nil {
		t.Fatal(err)
	}

	reports, err := r.Run(context.Background(), 4)
	if err != nil {
		t.Fatalf("Run aborted instead of degrading: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	for i, rep := range reports {
		h := rep.Collection
		if !h.Degraded {
			t.Fatalf("epoch %d: not marked degraded: %+v", i, h)
		}
		if len(h.FailedMonitors) != 1 || h.FailedMonitors[0] != dead {
			t.Fatalf("epoch %d: FailedMonitors = %v, want [%s]", i, h.FailedMonitors, dead)
		}
		if h.LostPaths == 0 || h.Attempts == 0 {
			t.Fatalf("epoch %d: lost paths/attempts not recorded: %+v", i, h)
		}
		if rep.Survived+h.LostPaths > rep.Probed {
			t.Fatalf("epoch %d: survived %d + lost %d > probed %d", i, rep.Survived, h.LostPaths, rep.Probed)
		}
	}
	// The surviving monitors' data must still be exact.
	values, ident, err := r.Estimates(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cfg.Metrics {
		if ident[j] && math.Abs(values[j]-cfg.Metrics[j]) > 1e-8 {
			t.Fatalf("link %d inferred %v, want %v", j, values[j], cfg.Metrics[j])
		}
	}
}

// TestRunnerStreamingCollector drives the same closed loop over real TCP
// monitors through agent.StreamNOC (batched binary frames, watermark
// assembly): epoch-for-epoch results must match the local collector, and
// a healthy panel folds nothing late.
func TestRunnerStreamingCollector(t *testing.T) {
	cfg := exampleConfig(t, Static)
	cfg.Horizon = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	useStreamNOC(t, r, agent.StreamConfig{
		PM:       cfg.PM,
		Monitors: exampleMonitors(t, r, "", nil),
		SourceOf: exampleSrcOf(cfg.PM),
		Shards:   2,
	})

	reports, err := r.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	local, err := New(exampleConfigFixedHorizon(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	localReports, err := local.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if reports[i].Rank != localReports[i].Rank || reports[i].Survived != localReports[i].Survived {
			t.Fatalf("epoch %d: streaming %+v vs local %+v", i, reports[i], localReports[i])
		}
		if reports[i].Collection.Degraded || reports[i].Collection.LateFolded != 0 {
			t.Fatalf("epoch %d: healthy streaming run reported %+v", i, reports[i].Collection)
		}
	}
	values, ident, err := r.Estimates(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cfg.Metrics {
		if ident[j] && math.Abs(values[j]-cfg.Metrics[j]) > 1e-8 {
			t.Fatalf("link %d inferred %v, want %v", j, values[j], cfg.Metrics[j])
		}
	}
}

// TestRunnerStreamingSurvivesDeadMonitor is the degradation acceptance
// test: with one TCP monitor down for the whole run, Runner.Run still
// completes all epochs, the dead monitor's paths read as failed paths, and
// per-epoch collection health lands in EpochReport.Collection.
func TestRunnerStreamingSurvivesDeadMonitor(t *testing.T) {
	cfg := exampleConfig(t, Static)
	cfg.Horizon = 3
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcOf := exampleSrcOf(cfg.PM)
	// Kill the monitor sourcing the first selected path so every epoch is
	// guaranteed to lose at least one path.
	dead := srcOf(r.StaticSelection()[0])
	useStreamNOC(t, r, agent.StreamConfig{
		PM:        cfg.PM,
		Monitors:  exampleMonitors(t, r, dead, nil),
		SourceOf:  srcOf,
		Watermark: 2 * time.Second,
		Retry:     agent.RetryPolicy{MaxAttempts: 2},
		Breaker:   agent.BreakerPolicy{Disabled: true},
		Timeouts:  agent.Timeouts{Dial: 300 * time.Millisecond, Exchange: time.Second},
	})

	reports, err := r.Run(context.Background(), 3)
	if err != nil {
		t.Fatalf("Run aborted instead of degrading: %v", err)
	}
	for i, rep := range reports {
		h := rep.Collection
		if !h.Degraded {
			t.Fatalf("epoch %d: not marked degraded: %+v", i, h)
		}
		if len(h.FailedMonitors) != 1 || h.FailedMonitors[0] != dead {
			t.Fatalf("epoch %d: FailedMonitors = %v, want [%s]", i, h.FailedMonitors, dead)
		}
		if h.LostPaths == 0 || h.Attempts == 0 {
			t.Fatalf("epoch %d: lost paths/attempts not recorded: %+v", i, h)
		}
		if rep.Survived+h.LostPaths > rep.Probed {
			t.Fatalf("epoch %d: survived %d + lost %d > probed %d", i, rep.Survived, h.LostPaths, rep.Probed)
		}
	}
	// The surviving monitors' data must still be exact.
	values, ident, err := r.Estimates(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cfg.Metrics {
		if ident[j] && math.Abs(values[j]-cfg.Metrics[j]) > 1e-8 {
			t.Fatalf("link %d inferred %v, want %v", j, values[j], cfg.Metrics[j])
		}
	}
}

// TestRunnerStreamingFailFast: Step collects through CollectAssembled, so
// that is where FailFast must bite. With one monitor dead, every epoch is
// degraded and discarded whole: nothing survives, every probed path is
// lost.
func TestRunnerStreamingFailFast(t *testing.T) {
	cfg := exampleConfig(t, Static)
	cfg.Horizon = 3
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcOf := exampleSrcOf(cfg.PM)
	dead := srcOf(r.StaticSelection()[0])
	useStreamNOC(t, r, agent.StreamConfig{
		PM:       cfg.PM,
		Monitors: exampleMonitors(t, r, dead, nil),
		SourceOf: srcOf,
		Retry:    agent.RetryPolicy{MaxAttempts: 1},
		Timeouts: agent.Timeouts{Dial: 300 * time.Millisecond},
		FailFast: true,
	})

	reports, err := r.Run(context.Background(), 3)
	if err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	for i, rep := range reports {
		if !rep.Collection.Degraded {
			t.Fatalf("epoch %d: not marked degraded: %+v", i, rep.Collection)
		}
		if rep.Survived != 0 || rep.Collection.LostPaths != rep.Probed {
			t.Fatalf("epoch %d: fail-fast kept data: survived %d, lost %d of %d",
				i, rep.Survived, rep.Collection.LostPaths, rep.Probed)
		}
	}
}

// foreignListener wraps a monitor's listener so every reply frame is
// preceded by a result for a path the NOC never asked that epoch about: a
// buggy or hostile monitor.
type foreignListener struct {
	net.Listener
	path int
}

func (l *foreignListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &foreignConn{Conn: c, path: l.path}, nil
}

type foreignConn struct {
	net.Conn
	path int
}

// Write sends a result for c.path ahead of the monitor's real reply. The
// monitor flushes once per reply, so p is one whole binary result frame:
// a 6-byte header, the epoch, then the length-prefixed monitor name.
func (c *foreignConn) Write(p []byte) (int, error) {
	epoch := int(int64(binary.BigEndian.Uint64(p[6:14])))
	n := int(binary.BigEndian.Uint16(p[14:16]))
	wire, err := agent.EncodeResultBatch(nil, agent.EncodingBinary, &agent.ResultBatch{
		Type:    agent.MsgBatchResult,
		Epoch:   epoch,
		Monitor: string(p[16 : 16+n]),
		Results: []agent.BatchResult{{PathID: c.path, OK: true, Value: 1}},
	})
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(append(wire, p...)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestRunnerDropsForeignPathIDs: results naming a path outside the epoch's
// selection never reach Step. An out-of-range ID would index past the
// availability vector; an unselected in-range ID would count a path nobody
// probed. Either way the run must match the local collector exactly.
func TestRunnerDropsForeignPathIDs(t *testing.T) {
	cfg := exampleConfigFixedHorizon(t, 4)
	local, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	selected := map[int]bool{}
	for _, p := range local.StaticSelection() {
		selected[p] = true
	}
	unselected := -1
	for p := 0; p < cfg.PM.NumPaths() && unselected < 0; p++ {
		if !selected[p] {
			unselected = p
		}
	}
	if unselected < 0 {
		t.Fatal("static selection covers every path")
	}
	want, err := local.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		path int
	}{
		{"out of range", cfg.PM.NumPaths() + 5},
		{"in range, not selected", unselected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(exampleConfigFixedHorizon(t, 4))
			if err != nil {
				t.Fatal(err)
			}
			wrap := func(ln net.Listener) net.Listener { return &foreignListener{Listener: ln, path: tc.path} }
			useStreamNOC(t, r, agent.StreamConfig{
				PM:       cfg.PM,
				Monitors: exampleMonitors(t, r, "", wrap),
				SourceOf: exampleSrcOf(cfg.PM),
			})
			got, err := r.Run(context.Background(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Survived != want[i].Survived || got[i].Rank != want[i].Rank || got[i].Collection.Degraded {
					t.Fatalf("epoch %d: foreign result leaked in: got %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
