package sim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// survivorRecorder wraps a collector and keeps, per epoch, the path IDs of
// the successful in-time measurements in the order Step folds them.
type survivorRecorder struct {
	inner     Collector
	surviving [][]int
}

func (s *survivorRecorder) CollectAssembled(ctx context.Context, epoch int, selected []int) (agent.AssembledEpoch, error) {
	out, err := s.inner.CollectAssembled(ctx, epoch, selected)
	var surv []int
	for _, m := range out.Measurements {
		if m.OK {
			surv = append(surv, m.PathID)
		}
	}
	s.surviving = append(s.surviving, surv)
	return out, err
}

// recordSurvivors puts a survivorRecorder in front of r's collector.
func recordSurvivors(t *testing.T, r *Runner, inner Collector) *survivorRecorder {
	t.Helper()
	rec := &survivorRecorder{inner: inner}
	if err := r.UseCollector(rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// benchTopologyConfig is the closed-loop figure's setting: the 60-node,
// 130-link bench topology with 100 candidate paths between 10 sources and
// 10 destinations, a calibrated failure model expecting two down links,
// unit costs and a 30-path budget.
func benchTopologyConfig(t *testing.T, mode Mode, horizon int) Config {
	t.Helper()
	tp, err := topo.Generate(topo.Config{Name: "bench", Nodes: 60, Links: 130, PoPs: 5, Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	pool := append(append([]graph.NodeID{}, tp.Access...), tp.Core...)
	paths, err := routing.MonitorPairs(tp.Graph, pool[:10], pool[10:20])
	if err != nil {
		t.Fatal(err)
	}
	pm, err := tomo.NewPathMatrix(paths[:min(len(paths), 100)], tp.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	model, err := failure.NewModel(failure.Config{Links: pm.NumLinks(), ExpectedFailures: 2, Seed: 2014})
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
		PM: pm, Costs: costs, Budget: 30, Metrics: metrics,
		Failures: model, Horizon: horizon, Mode: mode, Model: model, Seed: 7,
	}
}

// checkReportsAgainstSystem recomputes every epoch's rank and identifiable
// link count from a tomo.System over that epoch's surviving paths and
// requires the report to carry the same two numbers. It returns the
// distinct identifiable counts seen.
func checkReportsAgainstSystem(t *testing.T, pm *tomo.PathMatrix, rec *survivorRecorder, reports []EpochReport) map[int]bool {
	t.Helper()
	if len(rec.surviving) != len(reports) {
		t.Fatalf("%d recorded epochs for %d reports", len(rec.surviving), len(reports))
	}
	seen := map[int]bool{}
	for i, rep := range reports {
		sys, err := tomo.NewSystem(pm, rec.surviving[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Survived != len(rec.surviving[i]) || rep.Rank != sys.Rank() || rep.Identifiable != sys.NumIdentifiable() {
			t.Fatalf("epoch %d: report survived %d rank %d identifiable %d, System over %d survivors: rank %d identifiable %d",
				i, rep.Survived, rep.Rank, rep.Identifiable, len(rec.surviving[i]), sys.Rank(), sys.NumIdentifiable())
		}
		seen[rep.Identifiable] = true
	}
	return seen
}

// EpochReport.Identifiable is what `tomo serve` and the sim gauges report;
// it must equal System.NumIdentifiable over the epoch's surviving paths,
// as must Rank equal System.Rank. Static and Learning runners on the
// example and bench-topology instances, plus a degraded epoch with one
// monitor down.
func TestEpochReportMatchesSystem(t *testing.T) {
	ctx := context.Background()
	const epochs = 40
	for _, inst := range []struct {
		name string
		cfg  func(*testing.T, Mode, int) Config
	}{
		{"example", func(t *testing.T, m Mode, h int) Config { return benchConfig(t, m, h) }},
		{"bench-topology", benchTopologyConfig},
	} {
		for _, mode := range []Mode{Static, Learning} {
			cfg := inst.cfg(t, mode, epochs)
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := recordSurvivors(t, r, r.collector)
			reports, err := r.Run(ctx, epochs)
			if err != nil {
				t.Fatal(err)
			}
			seen := checkReportsAgainstSystem(t, cfg.PM, rec, reports)
			if len(seen) < 2 {
				t.Fatalf("%s mode %d: identifiable count never varied (%v); the check is vacuous", inst.name, mode, seen)
			}
		}
	}

	cfg := exampleConfigFixedHorizon(t, 1)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcOf := exampleSrcOf(cfg.PM)
	dead := srcOf(r.StaticSelection()[0])
	noc := newStreamNOC(t, agent.StreamConfig{
		PM:       cfg.PM,
		Monitors: exampleMonitors(t, r, dead, nil),
		SourceOf: srcOf,
		Retry:    agent.RetryPolicy{MaxAttempts: 1},
		Breaker:  agent.BreakerPolicy{Disabled: true},
		Timeouts: agent.Timeouts{Dial: 300 * time.Millisecond, Exchange: time.Second},
	})
	rec := recordSurvivors(t, r, noc)
	reports, err := r.Run(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Collection.Degraded || reports[0].Collection.LostPaths == 0 {
		t.Fatalf("dead monitor %s did not degrade the epoch: %+v", dead, reports[0].Collection)
	}
	checkReportsAgainstSystem(t, cfg.PM, rec, reports)
}

// nanCollector wraps a collector and replaces the first successful
// measurement of one epoch with NaN, as a binary probe frame can carry.
type nanCollector struct {
	inner Collector
	epoch int
}

func (c *nanCollector) CollectAssembled(ctx context.Context, epoch int, selected []int) (agent.AssembledEpoch, error) {
	out, err := c.inner.CollectAssembled(ctx, epoch, selected)
	if epoch == c.epoch {
		for i := range out.Measurements {
			if out.Measurements[i].OK {
				out.Measurements[i].Value = math.NaN()
				break
			}
		}
	}
	return out, err
}

// One NaN measurement poisons its path's running mean; Estimates must
// return the error naming it, not NaN metrics.
func TestEstimatesRejectNaNMeasurement(t *testing.T) {
	cfg := exampleConfig(t, Static)
	cfg.Horizon = 20
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.UseCollector(&nanCollector{inner: r.collector, epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), cfg.Horizon); err != nil {
		t.Fatal(err)
	}
	values, ident, err := r.Estimates(1, 1e-6)
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Estimates = %v, %v, %v; want an error naming the NaN measurement", values, ident, err)
	}
}
