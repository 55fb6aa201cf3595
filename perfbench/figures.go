package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"robusttomo/internal/experiments"
	"robusttomo/internal/sim"
	"robusttomo/internal/stats"
	"robusttomo/internal/topo"
)

// The figures workload regenerates three figures in-process at the
// repository-root bench_test.go scale. A figure is a deterministic
// function of its configuration, so the inputs are that fixed
// configuration; varying it with the seed would move the work per op
// with the seed.
func benchWorkload() experiments.Workload {
	return experiments.Workload{
		CandidatePaths: 100,
		Custom:         &topo.Config{Name: "bench", Nodes: 60, Links: 130, PoPs: 5, Seed: 4242},
	}
}

func benchScale(workers int) experiments.Scale {
	return experiments.Scale{MonitorSets: 2, Scenarios: 50, MonteCarloRuns: 25, ExpectedFailures: 2, Seed: 2014, Workers: workers}
}

// closedLoopConfig is the closed-loop extension figure's configuration.
var closedLoopConfig = experiments.ClosedLoopConfig{Workload: benchWorkload(), Multiplier: 0.6, Horizon: 120, Windows: 4}

// figure is one figure runner; it returns the figure's JSON.
type figure struct {
	name string
	run  func(sc experiments.Scale) ([]byte, error)
}

// figures are regenerated one per op, in rotation. The three take about
// 15, 80 and 55 ms, so an op that regenerated all three would leave
// fewer than minOps ops in a run; in rotation each class holds a third
// of the ops, which keeps p50 and p90 at least 0.16 from a class
// boundary.
var figures = []figure{
	{"fig5", func(sc experiments.Scale) ([]byte, error) {
		res, err := experiments.BudgetSweep(experiments.BudgetSweepConfig{Workload: benchWorkload(), Multiplier: []float64{0.5, 1.0}}, sc)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}},
	{"fig10", func(sc experiments.Scale) ([]byte, error) {
		fig, err := experiments.Learning(experiments.LearningConfig{Workload: benchWorkload(), Multiplier: []float64{0.75}, Epochs: []int{100, 300}}, sc)
		if err != nil {
			return nil, err
		}
		return json.Marshal(fig)
	}},
	{"closedloop", func(sc experiments.Scale) ([]byte, error) {
		fig, err := experiments.ClosedLoop(closedLoopConfig, sc)
		if err != nil {
			return nil, err
		}
		return json.Marshal(fig)
	}},
}

// runFigures regenerates the figures in rotation with Workers = the CPU
// count, checks every output against the first of its figure, and after
// timing checks those against a Workers = 1 run.
func runFigures(ctx context.Context, cfg config) (*report, error) {
	sc := benchScale(runtime.NumCPU())
	first := make([][]byte, len(figures))
	rep := newReport()
	check := func(k int, out []byte) error {
		if first[k] == nil {
			first[k] = out
			return nil
		}
		if !bytes.Equal(out, first[k]) {
			return fmt.Errorf("%s: output differs from the first regeneration", figures[k].name)
		}
		return nil
	}
	setups := make([]float64, setupRepeats)
	for k := range setups {
		t0 := time.Now()
		for f := range figures {
			out, err := figures[f].run(sc)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", figures[f].name, err)
			}
			if err := check(f, out); err != nil {
				return nil, err
			}
		}
		setups[k] = time.Since(t0).Seconds()
	}
	phaseOn := func(tr *tracer, readMem func() (mem, error)) (*phase, error) {
		return runPhase(ctx, cfg.seconds, 1<<30, func(i int) (opResult, error) {
			k := i % len(figures)
			root := tr.begin("op", 0, i)
			sp := tr.begin("experiments."+figures[k].name, root, i)
			t0 := time.Now()
			out, err := figures[k].run(sc)
			lat := time.Since(t0)
			tr.end(sp)
			tr.end(root)
			res := opResult{class: figures[k].name, lat: lat}
			if err != nil {
				return res, err
			}
			t1 := time.Now()
			err = check(k, out)
			res.aside = time.Since(t1)
			return res, err
		}, readMem)
	}
	usage0 := selfUsage()
	ph, err := phaseOn(nil, func() (mem, error) { return selfMem(), nil })
	if err != nil {
		return nil, err
	}
	usage1 := selfUsage()
	var tr *tracer
	var tph *phase
	if cfg.trace {
		tr = newTracer()
		if tph, err = phaseOn(tr, nil); err != nil {
			return nil, err
		}
	}

	if cfg.trace {
		rep.traceCounts(ph, tph)
	} else {
		if err := rep.endToEnd(ph, setups); err != nil {
			return nil, err
		}
		rep.checkMargin(ph)
	}
	serial := benchScale(1)
	for k, f := range figures {
		out, err := f.run(serial)
		if err != nil {
			return nil, fmt.Errorf("serial %s: %w", f.name, err)
		}
		if !bytes.Equal(out, first[k]) {
			rep.mismatch(-1, fmt.Errorf("%s: Workers=%d output differs from Workers=1", f.name, sc.Workers))
		}
	}
	if !cfg.trace {
		return rep, nil
	}

	rep.setRuntime(usage0, usage1, ph.attempted)
	self := tr.selfMS()
	for _, f := range figures {
		rep.setLayer(tr, self, "experiments."+f.name+"_ms", "experiments."+f.name)
	}
	rep.set("unaccounted_ms", "ms", median(tr.unaccounted(self, "op", []string{"experiments.fig5", "experiments.fig10", "experiments.closedloop"})))
	if err := simSteps(ctx, tr); err != nil {
		return nil, err
	}
	rep.setLayer(tr, tr.selfMS(), "sim.step_ms", "sim.step")
	if err := traceTail(rep, tr, cfg, ph, tph); err != nil {
		return nil, err
	}
	return rep, nil
}

// simSteps steps a learning-mode sim.Runner through the closed-loop
// figure's instance, one span per Step, built as ClosedLoop builds it.
func simSteps(ctx context.Context, tr *tracer) error {
	cfg := closedLoopConfig
	sc := benchScale(1)
	in, err := experiments.BuildInstance(cfg.Workload, sc, 0)
	if err != nil {
		return err
	}
	order := make([]int, in.PM.NumPaths())
	for i := range order {
		order[i] = i
	}
	basis := 0.0
	for _, q := range in.PM.SelectBasisIndices(order) {
		basis += in.Costs[q]
	}
	metrics := make([]float64, in.PM.NumLinks())
	mRng := stats.NewRNG(sc.Seed, 1600)
	for i := range metrics {
		metrics[i] = 1 + mRng.Float64()*9
	}
	runner, err := sim.New(sim.Config{
		PM: in.PM, Costs: in.Costs, Budget: cfg.Multiplier * basis, Metrics: metrics,
		Failures: in.Model, Horizon: cfg.Horizon, Mode: sim.Learning, Model: in.Model, Seed: sc.Seed,
	})
	if err != nil {
		return err
	}
	// Step spans get op IDs of their own, past any phase op.
	const stepOps = 1 << 40
	for s := 0; s < cfg.Horizon; s++ {
		sp := tr.begin("sim.step", 0, stepOps+s)
		_, err := runner.Step(ctx)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("sim step %d: %w", s, err)
		}
	}
	return nil
}
