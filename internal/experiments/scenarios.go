package experiments

import (
	"fmt"

	"robusttomo/internal/diagnose"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/selection"
	"robusttomo/internal/stats"
)

// BurstinessConfig parameterizes the temporal-correlation ablation: the
// same stationary failure mass delivered in Gilbert–Elliott bursts of
// increasing mean length.
type BurstinessConfig struct {
	Workload   Workload
	Multiplier float64   // budget, × basis cost
	MeanBursts []float64 // mean Bad sojourns swept on the x axis
}

// DefaultMeanBursts spans i.i.d.-equivalent (1) to heavily bursty (16).
func DefaultMeanBursts() []float64 { return []float64{1, 2, 4, 8, 16} }

// burstinessCap keeps every swept burst length reachable: a Gilbert
// chain with marginal m and mean burst L needs the Good→Bad probability
// (m/(1−m))/L ≤ 1, so marginals are capped below 0.5 (the L = 1 bound).
const burstinessCap = 0.45

// Burstiness measures how selection quality degrades when failures are
// temporally correlated: a correlation-blind ProbRoMe (fed only the
// stationary marginals) and a MonteRoMe whose panel is drawn from the
// true bursty process, both evaluated on bursty schedules of growing
// mean burst length. The stationary marginal failure mass is identical
// at every x — only its temporal clustering changes — so any separation
// is attributable to burstiness alone. The selection panel and the
// evaluation schedule are bracketed with the source's Snapshot/Restore,
// so both algorithms are judged on the very same epoch sequence.
func Burstiness(cfg BurstinessConfig, sc Scale) (Figure, error) {
	if len(cfg.MeanBursts) == 0 {
		cfg.MeanBursts = DefaultMeanBursts()
	}
	fig := Figure{
		ID:     fmt.Sprintf("ext-burstiness-%s", cfg.Workload.label()),
		Title:  fmt.Sprintf("Gilbert–Elliott bursty links (%s)", cfg.Workload.label()),
		XLabel: "mean burst length (epochs)",
		YLabel: "rank",
	}
	names := []string{"ProbRoMe-iid", "MonteRoMe-GE", AlgSelectPath}

	// Trial = (monitor set, burst index); every RNG stream below derives
	// from the trial coordinate alone, and trials fold in index order.
	type trialResult struct {
		// ranks[alg index], in names order.
		ranks [][]float64
	}
	nb := len(cfg.MeanBursts)
	trials := make([]trialResult, sc.MonitorSets*nb)
	err := forTrials(effectiveWorkers(sc.Workers), len(trials), sc.Progress, func(trial int) error {
		set, bi := trial/nb, trial%nb
		in, err := BuildInstance(cfg.Workload, sc, set)
		if err != nil {
			return err
		}
		marginals := in.Model.Probs()
		for i, m := range marginals {
			if m > burstinessCap {
				marginals[i] = burstinessCap
			}
		}
		ge, err := failure.NewGilbertElliott(failure.GEConfig{
			Marginals: marginals,
			MeanBurst: cfg.MeanBursts[bi],
			Seed:      trialStream(2100, uint64(trial)),
		})
		if err != nil {
			return err
		}
		blindModel, err := ge.IndependentApproximation()
		if err != nil {
			return err
		}
		budget := cfg.Multiplier * instanceBasisCost(in)

		// The Monte Carlo selection panel advances the chain; rewinding to
		// the pre-panel snapshot afterwards hands the evaluation schedule
		// the same starting state every algorithm is judged from.
		snap := ge.Snapshot()
		blind, err := selection.RoMe(in.PM, in.Costs, budget,
			er.NewProbBoundInc(in.PM, blindModel), selection.NewOptions())
		if err != nil {
			return err
		}
		awareOracle := er.NewMonteCarloInc(in.PM, ge, sc.MonteCarloRuns, stats.NewRNG(sc.Seed, trialStream(2200, uint64(trial))))
		aware, err := selection.RoMe(in.PM, in.Costs, budget, awareOracle, selection.NewOptions())
		awareOracle.Release()
		if err != nil {
			return err
		}
		base, err := selection.SelectPathBudgeted(in.PM, in.Costs, budget)
		if err != nil {
			return err
		}
		if err := ge.Restore(snap); err != nil {
			return err
		}

		schedule := failure.SampleScenarios(ge, stats.NewRNG(sc.Seed, trialStream(2300, uint64(trial))), sc.Scenarios)
		tr := trialResult{ranks: make([][]float64, len(names))}
		for a, sel := range [][]int{blind.Selected, aware.Selected, base.Selected} {
			tr.ranks[a], _ = in.EvalMetrics(sel, schedule, false)
		}
		trials[trial] = tr
		return nil
	})
	if err != nil {
		return Figure{}, err
	}

	// Serial fold in trial order.
	samples := make(map[string]map[float64][]float64, len(names))
	for _, name := range names {
		samples[name] = map[float64][]float64{}
	}
	for trial := range trials {
		burst := cfg.MeanBursts[trial%nb]
		for a, name := range names {
			samples[name][burst] = append(samples[name][burst], trials[trial].ranks[a]...)
		}
	}
	for _, name := range names {
		s := Series{Name: name}
		for _, burst := range cfg.MeanBursts {
			vals := samples[name][burst]
			s.Points = append(s.Points, Point{X: burst, Mean: stats.Mean(vals), Std: stats.StdDev(vals)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// NodeFailConfig parameterizes the node-failure localization experiment.
type NodeFailConfig struct {
	Workload   Workload
	Multiplier float64
	// NodeEvents sweeps the expected number of node failures per epoch;
	// each node fails with probability NodeEvents/|V|.
	NodeEvents []float64
}

// DefaultNodeEvents spans rare to frequent node events.
func DefaultNodeEvents() []float64 { return []float64{0.5, 1, 2} }

// NodeFailures drives the node-failure source against the link-level
// Boolean diagnoser and a node-level candidate rule, reporting three
// series per event rate:
//
//   - NodeRecall: fraction of truly failed nodes recovered by the node
//     candidate rule (a covered node is a candidate when every selected
//     path over its incident links failed);
//   - LinkImplicatedRecall: fraction of links downed by node events that
//     the link-level diagnoser can certainly implicate — node events down
//     whole incident bundles, so failed paths rarely have single-link
//     explanations and link-level certainty collapses;
//   - IdentifiableNodes: the NodeIdentifiability fraction of the selected
//     probe set (covered nodes with unique failure signatures), the
//     structural ceiling on exact node localization.
func NodeFailures(cfg NodeFailConfig, sc Scale) (Figure, error) {
	if len(cfg.NodeEvents) == 0 {
		cfg.NodeEvents = DefaultNodeEvents()
	}
	fig := Figure{
		ID:     fmt.Sprintf("ext-nodefail-%s", cfg.Workload.label()),
		Title:  fmt.Sprintf("Node failures vs link diagnosis (%s)", cfg.Workload.label()),
		XLabel: "expected node failures per epoch",
		YLabel: "fraction",
	}
	const (
		serNodeRecall = "NodeRecall"
		serLinkRecall = "LinkImplicatedRecall"
		serIdent      = "IdentifiableNodes"
	)
	names := []string{serNodeRecall, serLinkRecall, serIdent}

	// Trial = (monitor set, event-rate index), folded in index order.
	type trialResult struct {
		nodeRecall, linkRecall []float64
		identFrac              float64
	}
	ne := len(cfg.NodeEvents)
	trials := make([]trialResult, sc.MonitorSets*ne)
	err := forTrials(effectiveWorkers(sc.Workers), len(trials), sc.Progress, func(trial int) error {
		set, ei := trial/ne, trial%ne
		in, err := BuildInstance(cfg.Workload, sc, set)
		if err != nil {
			return err
		}
		g := in.Topology.Graph
		nodes := g.NumNodes()
		incidence := make([][]int, nodes)
		for v := 0; v < nodes; v++ {
			for _, e := range g.IncidentEdges(graph.NodeID(v)) {
				incidence[v] = append(incidence[v], int(e))
			}
		}
		q := cfg.NodeEvents[ei] / float64(nodes)
		probs := make([]float64, nodes)
		for v := range probs {
			probs[v] = q
		}
		nfm, err := failure.NewNodeFailureModel(failure.NodeFailureConfig{
			Links: in.PM.NumLinks(), Incidence: incidence, NodeProbs: probs,
		})
		if err != nil {
			return err
		}
		// Selection is correlation-blind: ProbRoMe on the node process's
		// link marginals.
		blindModel, err := nfm.IndependentApproximation()
		if err != nil {
			return err
		}
		budget := cfg.Multiplier * instanceBasisCost(in)
		res, err := selection.RoMe(in.PM, in.Costs, budget,
			er.NewProbBoundInc(in.PM, blindModel), selection.NewOptions())
		if err != nil {
			return err
		}
		selected := res.Selected

		ni, err := in.PM.NodeIdentifiability(selected, incidence)
		if err != nil {
			return err
		}
		tr := trialResult{}
		if ni.NumCovered > 0 {
			tr.identFrac = float64(ni.NumIdentifiable) / float64(ni.NumCovered)
		}

		// Per node, the selected paths over its incident links — the
		// node's failure signature for the candidate rule.
		pathsOf := make([][]int, nodes)
		for _, p := range selected {
			onLink := map[int]bool{}
			for _, e := range in.PM.EdgesOf(p) {
				onLink[e] = true
			}
			for v := 0; v < nodes; v++ {
				for _, l := range incidence[v] {
					if onLink[l] {
						pathsOf[v] = append(pathsOf[v], p)
						break
					}
				}
			}
		}

		rng := stats.NewRNG(sc.Seed, trialStream(2400, uint64(trial)))
		for epoch := 0; epoch < sc.Scenarios; epoch++ {
			scn, downNodes := nfm.SampleWithNodes(rng)
			ob := diagnose.Observation{}
			pathOK := map[int]bool{}
			for _, p := range selected {
				ok := in.PM.Available(p, scn)
				pathOK[p] = ok
				ob.Paths = append(ob.Paths, p)
				ob.OK = append(ob.OK, ok)
			}

			// Node candidates: covered nodes all of whose paths failed.
			candidate := make([]bool, nodes)
			for v := 0; v < nodes; v++ {
				if len(pathsOf[v]) == 0 {
					continue
				}
				allDown := true
				for _, p := range pathsOf[v] {
					if pathOK[p] {
						allDown = false
						break
					}
				}
				candidate[v] = allDown
			}
			if len(downNodes) > 0 {
				hit := 0
				for _, v := range downNodes {
					if candidate[v] {
						hit++
					}
				}
				tr.nodeRecall = append(tr.nodeRecall, float64(hit)/float64(len(downNodes)))
			}

			diag, err := diagnose.Localize(in.PM, ob)
			if err != nil {
				return err
			}
			failedLinks, implicated := 0, 0
			for l, down := range scn.Failed {
				if down {
					failedLinks++
					if diag.Implicated[l] {
						implicated++
					}
				}
			}
			if failedLinks > 0 {
				tr.linkRecall = append(tr.linkRecall, float64(implicated)/float64(failedLinks))
			}
		}
		trials[trial] = tr
		return nil
	})
	if err != nil {
		return Figure{}, err
	}

	samples := map[string]map[float64][]float64{}
	for _, name := range names {
		samples[name] = map[float64][]float64{}
	}
	for trial := range trials {
		rate := cfg.NodeEvents[trial%ne]
		samples[serNodeRecall][rate] = append(samples[serNodeRecall][rate], trials[trial].nodeRecall...)
		samples[serLinkRecall][rate] = append(samples[serLinkRecall][rate], trials[trial].linkRecall...)
		samples[serIdent][rate] = append(samples[serIdent][rate], trials[trial].identFrac)
	}
	for _, name := range names {
		s := Series{Name: name}
		for _, rate := range cfg.NodeEvents {
			vals := samples[name][rate]
			s.Points = append(s.Points, Point{X: rate, Mean: stats.Mean(vals), Std: stats.StdDev(vals)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
