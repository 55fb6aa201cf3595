// Command tomo is the operator CLI for the robust-tomography library:
//
//	tomo topo     -preset AS1755 [-load weights] [-write file]   describe/export
//	tomo select   -preset AS3257 -paths 400 -alg probrome        robust selection
//	tomo infer    -failures 1 [-seed 7]                          inference demo
//	tomo learn    -epochs 500 -paths 100                         LSR learner
//	tomo place    -monitors 8 [-failures 3]                      monitor placement
//	tomo simulate -epochs 200 -mode learning                     closed-loop run
//	tomo diagnose -failures 2                                    failure localization
//	tomo collect  -epochs 12 -kill-epoch 4 [-strict]             fault-tolerant collection demo
//	tomo serve    -addr 127.0.0.1:8321 [-kill-epoch 20]          observability daemon: /metrics, /healthz, /statusz, pprof
//
// Every subcommand is deterministic in its -seed flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"robusttomo/internal/diagnose"
	"robusttomo/internal/er"
	"robusttomo/internal/experiments"
	"robusttomo/internal/failure"
	"robusttomo/internal/placement"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/sim"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tomo:", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand; everything it prints goes to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tomo <topo|select|infer|learn|place|simulate|diagnose|collect|serve> [flags]")
	}
	switch args[0] {
	case "topo":
		return runTopo(args[1:], stdout)
	case "select":
		return runSelect(args[1:], stdout)
	case "infer":
		return runInfer(args[1:], stdout)
	case "learn":
		return runLearn(args[1:], stdout)
	case "place":
		return runPlace(args[1:], stdout)
	case "simulate":
		return runSimulate(args[1:], stdout)
	case "diagnose":
		return runDiagnose(args[1:], stdout)
	case "collect":
		return runCollect(args[1:], stdout)
	case "serve":
		return runServe(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (topo, select, infer, learn, place, simulate, diagnose, collect, serve)", args[0])
	}
}

func runDiagnose(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	preset := fs.String("preset", topo.AS1755, "topology preset")
	paths := fs.Int("paths", 100, "candidate path count")
	failures := fs.Int("failures", 2, "concurrent link failures to inject")
	seed := fs.Uint64("seed", 2014, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := experiments.Scale{MonitorSets: 1, Scenarios: 1, MonteCarloRuns: 50, ExpectedFailures: 3, Seed: *seed}
	in, err := experiments.BuildInstance(experiments.Workload{Preset: *preset, CandidatePaths: *paths}, sc, 0)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(*seed, 3)
	scenario, err := in.Model.ExactK(rng, *failures)
	if err != nil {
		return err
	}
	obs := diagnose.Observation{}
	for i := 0; i < in.PM.NumPaths(); i++ {
		obs.Paths = append(obs.Paths, i)
		obs.OK = append(obs.OK, in.PM.Available(i, scenario))
	}
	diag, err := diagnose.Localize(in.PM, obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s with %d probed paths; injected down links:", *preset, in.PM.NumPaths())
	for l, down := range scenario.Failed {
		if down {
			fmt.Fprintf(stdout, " l%d", l)
		}
	}
	fmt.Fprintf(stdout, "\nlocalization: %d links proven up, %d suspects, %d implicated (certainly down)\n",
		count(diag.Up), diag.NumSuspect(), diag.NumImplicated())
	for l, down := range diag.Implicated {
		if down {
			fmt.Fprintf(stdout, "  implicated: l%d (truly down: %v)\n", l, scenario.Failed[l])
		}
	}
	expl, err := diagnose.GreedyExplanation(in.PM, obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "greedy explanation (%d links):", len(expl))
	for _, l := range expl {
		fmt.Fprintf(stdout, " l%d", l)
	}
	fmt.Fprintln(stdout)
	return nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func runPlace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("place", flag.ContinueOnError)
	preset := fs.String("preset", topo.AS1755, "topology preset")
	monitors := fs.Int("monitors", 8, "monitors to place")
	failures := fs.Float64("failures", 0, "expected concurrent failures; 0 optimizes plain rank")
	seed := fs.Uint64("seed", 2014, "random seed for the failure model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tp, err := topo.Preset(*preset)
	if err != nil {
		return err
	}
	cfg := placement.Config{Graph: tp.Graph, Candidates: tp.Access, Budget: *monitors}
	objective := "rank"
	if *failures > 0 {
		model, err := failure.NewModel(failure.Config{
			Links: tp.Graph.NumEdges(), ExpectedFailures: *failures, Seed: *seed,
		})
		if err != nil {
			return err
		}
		cfg.Model = model
		objective = "expected rank"
	}
	res, err := placement.Greedy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "placed %d monitors on %s (%d candidates): %s %.2f over %d paths\n",
		len(res.Monitors), tp.Name, len(tp.Access), objective, res.Objective, res.Paths)
	for i, m := range res.Monitors {
		fmt.Fprintf(stdout, "  %2d. %s\n", i+1, tp.Graph.Label(m))
	}
	return nil
}

func runSimulate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	preset := fs.String("preset", topo.AS1755, "topology preset")
	paths := fs.Int("paths", 100, "candidate path count")
	epochs := fs.Int("epochs", 200, "epochs to run")
	mode := fs.String("mode", "static", "static (known distribution) or learning")
	mult := fs.Float64("budget-mult", 0.6, "budget as a multiple of the basis cost")
	seed := fs.Uint64("seed", 2014, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := experiments.Scale{MonitorSets: 1, Scenarios: 1, MonteCarloRuns: 50, ExpectedFailures: 3, Seed: *seed}
	in, err := experiments.BuildInstance(experiments.Workload{Preset: *preset, CandidatePaths: *paths}, sc, 0)
	if err != nil {
		return err
	}
	order := make([]int, in.PM.NumPaths())
	for i := range order {
		order[i] = i
	}
	basisCost := 0.0
	for _, q := range in.PM.SelectBasisIndices(order) {
		basisCost += in.Costs[q]
	}
	metrics := make([]float64, in.PM.NumLinks())
	rng := stats.NewRNG(*seed, 2)
	for i := range metrics {
		metrics[i] = 1 + rng.Float64()*9
	}
	simMode := sim.Static
	if *mode == "learning" {
		simMode = sim.Learning
	} else if *mode != "static" {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	runner, err := sim.New(sim.Config{
		PM:       in.PM,
		Costs:    in.Costs,
		Budget:   *mult * basisCost,
		Metrics:  metrics,
		Failures: in.Model,
		Horizon:  *epochs,
		Mode:     simMode,
		Model:    in.Model,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	reports, err := runner.Run(ctx, *epochs)
	if err != nil {
		return err
	}
	window := *epochs / 10
	if window < 1 {
		window = 1
	}
	fmt.Fprintf(stdout, "closed-loop %s mode on %s, %d candidates, budget %.0f\n", *mode, *preset, in.PM.NumPaths(), *mult*basisCost)
	fmt.Fprintln(stdout, "epochs       avg rank  avg survived  localized-down events")
	for start := 0; start < len(reports); start += window {
		end := start + window
		if end > len(reports) {
			end = len(reports)
		}
		rank, surv, impl := 0.0, 0.0, 0
		for _, rep := range reports[start:end] {
			rank += float64(rep.Rank)
			surv += float64(rep.Survived)
			impl += len(rep.Implicated)
		}
		n := float64(end - start)
		fmt.Fprintf(stdout, "%4d–%-4d    %7.2f  %11.2f  %d\n", start+1, end, rank/n, surv/n, impl)
	}
	values, ident, err := runner.Estimates(1, 1e-6)
	if err != nil {
		return err
	}
	identified, maxErr := 0, 0.0
	for j := range metrics {
		if !ident[j] {
			continue
		}
		identified++
		if d := values[j] - metrics[j]; d > maxErr {
			maxErr = d
		} else if -d > maxErr {
			maxErr = -d
		}
	}
	fmt.Fprintf(stdout, "final inference: %d/%d links identified, max abs error %.2g\n",
		identified, in.PM.NumLinks(), maxErr)
	return nil
}

func runTopo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	preset := fs.String("preset", topo.AS1755, "topology preset (AS1755, AS3257, AS1239)")
	load := fs.String("load", "", "load a Rocketfuel-style weights file instead of a preset")
	write := fs.String("write", "", "write the edge list to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tp *topo.Topology
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		tp, err = topo.LoadWeights(*load, f)
	} else {
		tp, err = topo.Preset(*preset)
	}
	if err != nil {
		return err
	}
	deg := tp.Graph.Degrees()
	fmt.Fprintf(stdout, "%s: %s, %d core / %d access routers\n",
		tp.Name, tp.Graph, len(tp.Core), len(tp.Access))
	fmt.Fprintf(stdout, "degree: min %d, max %d, mean %.2f; connected: %v\n",
		deg.Min, deg.Max, deg.Mean, tp.Graph.Connected())
	bridges := tp.Graph.Bridges()
	cutNodes := tp.Graph.ArticulationPoints()
	fmt.Fprintf(stdout, "cut links (bridges): %d of %d; cut routers: %d of %d — single points of failure for tomography\n",
		len(bridges), tp.Graph.NumEdges(), len(cutNodes), tp.Graph.NumNodes())
	if *write != "" {
		f, err := os.Create(*write)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tp.Graph.WriteEdgeList(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "edge list written to %s\n", *write)
	}
	return nil
}

func runSelect(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("select", flag.ContinueOnError)
	preset := fs.String("preset", topo.AS1755, "topology preset")
	load := fs.String("load", "", "load a Rocketfuel-style weights file instead of a preset")
	paths := fs.Int("paths", 400, "candidate path count")
	alg := fs.String("alg", "probrome", "algorithm: probrome, monterome, selectpath, matrome")
	mult := fs.Float64("budget-mult", 0.75, "budget as a multiple of the basis cost")
	seed := fs.Uint64("seed", 2014, "random seed")
	failures := fs.Float64("failures", 3, "expected concurrent link failures")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := experiments.Workload{Preset: *preset, CandidatePaths: *paths}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		tp, err := topo.LoadWeights(*load, f)
		if err != nil {
			return err
		}
		w = experiments.Workload{Loaded: tp, CandidatePaths: *paths}
	}
	sc := experiments.Scale{MonitorSets: 1, Scenarios: 200, MonteCarloRuns: 50, ExpectedFailures: *failures, Seed: *seed}
	in, err := experiments.BuildInstance(w, sc, 0)
	if err != nil {
		return err
	}

	// Budget from the basis cost.
	order := make([]int, in.PM.NumPaths())
	for i := range order {
		order[i] = i
	}
	basisCost := 0.0
	for _, q := range in.PM.SelectBasisIndices(order) {
		basisCost += in.Costs[q]
	}
	budget := *mult * basisCost

	var selected []int
	switch *alg {
	case "probrome":
		selected, err = in.Select(experiments.AlgProbRoMe, budget, sc, 1)
	case "monterome":
		selected, err = in.Select(experiments.AlgMonteRoMe, budget, sc, 1)
	case "selectpath":
		selected, err = in.Select(experiments.AlgSelectPath, budget, sc, 1)
	case "matrome":
		ea := er.Availabilities(in.PM, in.Model)
		var res selection.Result
		res, err = selection.MatRoMe(in.PM, ea, in.PM.Rank())
		selected = res.Selected
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	if err != nil {
		return err
	}

	total := 0.0
	for _, q := range selected {
		total += in.Costs[q]
	}
	scenarios := in.Model.SampleN(stats.NewRNG(*seed, 77), sc.Scenarios)
	ranks, _ := in.EvalMetrics(selected, scenarios, false)
	fmt.Fprintf(stdout, "%s on %s with %d candidates\n", *alg, in.Topology.Name, in.PM.NumPaths())
	fmt.Fprintf(stdout, "budget %.0f (%.2f× basis cost %.0f): selected %d paths, cost %.0f\n",
		budget, *mult, basisCost, len(selected), total)
	fmt.Fprintf(stdout, "no-failure rank: %d of max %d\n", in.PM.RankOf(selected), in.PM.Rank())
	fmt.Fprintf(stdout, "rank under failures (%d scenarios): %s\n", sc.Scenarios, stats.Summarize(ranks))
	return nil
}

func runInfer(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("infer", flag.ContinueOnError)
	failures := fs.Int("failures", 1, "concurrent link failures to inject")
	seed := fs.Uint64("seed", 7, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The Section II example network end to end: select, fail, measure,
	// infer.
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		return err
	}
	pm, err := tomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		return err
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	probs[ex.Bridge] = 0.3 // the bridge is the flaky link, as in the paper
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		return err
	}

	metrics := make([]float64, pm.NumLinks())
	rng := stats.NewRNG(*seed, 1)
	for i := range metrics {
		metrics[i] = 1 + rng.Float64()*9 // ground-truth link delays, ms
	}
	y, err := pm.TrueMeasurements(metrics)
	if err != nil {
		return err
	}

	scenario, err := model.ExactK(rng, *failures)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "example network: %s, %d candidate paths, rank %d\n", ex.Graph, pm.NumPaths(), pm.Rank())
	fmt.Fprintf(stdout, "injected failures: %d (links:", scenario.NumFailed())
	for l, down := range scenario.Failed {
		if down {
			fmt.Fprintf(stdout, " l%d", l)
		}
	}
	fmt.Fprintln(stdout, ")")

	all := make([]int, pm.NumPaths())
	for i := range all {
		all[i] = i
	}
	surviving := pm.Surviving(all, scenario)
	ys := make([]float64, len(surviving))
	for k, i := range surviving {
		ys[k] = y[i]
	}
	sys, err := tomo.NewSystem(pm, surviving, ys)
	if err != nil {
		return err
	}
	values, ident, err := sys.Solve()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "surviving paths: %d/%d, rank %d, identifiable links %d/%d\n",
		len(surviving), pm.NumPaths(), sys.Rank(), sys.NumIdentifiable(), pm.NumLinks())
	for j := range metrics {
		if ident[j] {
			fmt.Fprintf(stdout, "  l%d: inferred %.3f ms (truth %.3f)\n", j, values[j], metrics[j])
		} else {
			fmt.Fprintf(stdout, "  l%d: not identifiable (truth %.3f)\n", j, metrics[j])
		}
	}
	return nil
}

func runLearn(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("learn", flag.ContinueOnError)
	preset := fs.String("preset", topo.AS1755, "topology preset")
	paths := fs.Int("paths", 100, "candidate path count")
	epochs := fs.Int("epochs", 500, "learning epochs")
	mult := fs.Float64("budget-mult", 0.5, "budget as a multiple of the basis cost")
	seed := fs.Uint64("seed", 2014, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fig, err := experiments.Learning(experiments.LearningConfig{
		Workload:   experiments.Workload{Preset: *preset, CandidatePaths: *paths},
		Multiplier: []float64{*mult},
		Epochs:     []int{*epochs},
	}, experiments.Scale{MonitorSets: 1, Scenarios: 150, MonteCarloRuns: 50, ExpectedFailures: 3, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, fig)
	return nil
}
