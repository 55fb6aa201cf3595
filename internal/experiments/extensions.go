package experiments

import (
	"context"
	"fmt"
	"math"

	"robusttomo/internal/bandit"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/sim"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// CorrelatedConfig parameterizes the shared-risk ablation, an extension
// beyond the paper's independence assumption: links inside the same PoP
// are grouped into SRLGs that fail together.
type CorrelatedConfig struct {
	Workload   Workload
	Multiplier float64 // budget, × basis cost
	GroupProb  float64 // per-epoch SRLG failure probability
	MaxGroup   int     // max links per SRLG
}

// Correlated compares a correlation-blind ProbRoMe (fed the marginal link
// probabilities) against a correlation-aware MonteRoMe (sampling the true
// joint process) and SelectPath, all evaluated under the correlated
// process.
func Correlated(cfg CorrelatedConfig, sc Scale) (Figure, error) {
	fig := Figure{
		ID:     fmt.Sprintf("ext-correlated-%s", cfg.Workload.label()),
		Title:  fmt.Sprintf("Shared-risk link groups (%s)", cfg.Workload.label()),
		XLabel: "algorithm index (0=ProbRoMe-marginals 1=MonteRoMe-joint 2=SelectPath)",
		YLabel: "rank",
	}
	samples := map[string][]float64{}
	names := []string{"ProbRoMe-marginals", "MonteRoMe-joint", AlgSelectPath}

	for set := 0; set < sc.MonitorSets; set++ {
		in, err := BuildInstance(cfg.Workload, sc, set)
		if err != nil {
			return Figure{}, err
		}
		groups := popGroups(in, cfg.MaxGroup, cfg.GroupProb)
		corr, err := failure.NewCorrelatedModel(in.Model, groups)
		if err != nil {
			return Figure{}, err
		}
		budget := cfg.Multiplier * instanceBasisCost(in)

		// Correlation-blind: independent model with matching marginals.
		blindModel, err := corr.IndependentApproximation()
		if err != nil {
			return Figure{}, err
		}
		blind, err := selection.RoMe(in.PM, in.Costs, budget,
			er.NewProbBoundInc(in.PM, blindModel), selection.NewOptions())
		if err != nil {
			return Figure{}, err
		}
		// Correlation-aware: Monte Carlo over the true joint process.
		awareOracle := er.NewMonteCarloInc(in.PM, corr, sc.MonteCarloRuns, stats.NewRNG(sc.Seed, 1200+uint64(set)))
		aware, err := selection.RoMe(in.PM, in.Costs, budget, awareOracle, selection.NewOptions())
		awareOracle.Release()
		if err != nil {
			return Figure{}, err
		}
		base, err := selection.SelectPathBudgeted(in.PM, in.Costs, budget)
		if err != nil {
			return Figure{}, err
		}

		scenarios := failure.SampleScenarios(corr, stats.NewRNG(sc.Seed, 1300+uint64(set)), sc.Scenarios)
		for i, sel := range [][]int{blind.Selected, aware.Selected, base.Selected} {
			ranks, _ := in.EvalMetrics(sel, scenarios, false)
			samples[names[i]] = append(samples[names[i]], ranks...)
		}
	}
	for i, name := range names {
		fig.Series = append(fig.Series, Series{Name: name, Points: []Point{{
			X:    float64(i),
			Mean: stats.Mean(samples[name]),
			Std:  stats.StdDev(samples[name]),
		}}})
	}
	return fig, nil
}

// popGroups builds one SRLG per PoP from intra-PoP links.
func popGroups(in *Instance, maxGroup int, prob float64) []failure.SRLG {
	if maxGroup <= 0 {
		maxGroup = 4
	}
	perPoP := map[int][]int{}
	for _, e := range in.Topology.Graph.Edges() {
		pu := in.Topology.PoPOf[e.U]
		pv := in.Topology.PoPOf[e.V]
		if pu == pv && len(perPoP[pu]) < maxGroup {
			perPoP[pu] = append(perPoP[pu], int(e.ID))
		}
	}
	var groups []failure.SRLG
	for p := 0; p < len(in.Topology.PoPOf); p++ {
		links, ok := perPoP[p]
		if !ok || len(links) < 2 {
			continue
		}
		groups = append(groups, failure.SRLG{Links: links, Prob: prob})
	}
	return groups
}

// MultipathConfig parameterizes the k-shortest-paths extension: enriching
// the candidate set with alternative routes per monitor pair (the paper
// fixes k = 1, a single routing-determined path per pair).
type MultipathConfig struct {
	Workload   Workload
	Multiplier float64
	K          []int // candidate-route counts per pair, e.g. {1, 2, 3}
}

// Multipath measures how robust rank improves when the same monitors may
// probe up to k routes per pair under the same budget.
func Multipath(cfg MultipathConfig, sc Scale) (Figure, error) {
	if len(cfg.K) == 0 {
		cfg.K = []int{1, 2}
	}
	fig := Figure{
		ID:     fmt.Sprintf("ext-multipath-%s", cfg.Workload.label()),
		Title:  fmt.Sprintf("Multipath candidates (%s)", cfg.Workload.label()),
		XLabel: "routes per monitor pair (k)",
		YLabel: "rank",
	}
	series := Series{Name: AlgProbRoMe}
	for _, k := range cfg.K {
		var samples []float64
		for set := 0; set < sc.MonitorSets; set++ {
			// Build the base instance for monitors/cost/failure models,
			// then re-derive candidates with k routes per pair.
			in, err := BuildInstance(cfg.Workload, sc, set)
			if err != nil {
				return Figure{}, err
			}
			paths, err := routing.MonitorPairsK(in.Topology.Graph, in.Sources, in.Dests, k)
			if err != nil {
				return Figure{}, err
			}
			pm, err := tomo.NewPathMatrix(paths, in.Topology.Graph.NumEdges())
			if err != nil {
				return Figure{}, err
			}
			costs := in.Cost.Costs(paths)
			// Budget from the k=1 basis cost so all k values compete on
			// equal spending.
			budget := cfg.Multiplier * instanceBasisCost(in)
			res, err := selection.RoMe(pm, costs, budget, er.NewProbBoundInc(pm, in.Model), selection.NewOptions())
			if err != nil {
				return Figure{}, err
			}
			scenarios := in.Model.SampleN(stats.NewRNG(sc.Seed, 1700+uint64(set)*3+uint64(k)), sc.Scenarios)
			for _, scn := range scenarios {
				samples = append(samples, float64(pm.RankUnder(res.Selected, scn)))
			}
		}
		series.Points = append(series.Points, Point{X: float64(k), Mean: stats.Mean(samples), Std: stats.StdDev(samples)})
	}
	fig.Series = []Series{series}
	return fig, nil
}

// ClosedLoopConfig parameterizes the end-to-end system comparison: the
// closed-loop runner (internal/sim) in static (known distribution) vs
// learning (unknown distribution) mode over the same failure schedule.
type ClosedLoopConfig struct {
	Workload   Workload
	Multiplier float64
	Horizon    int
	Windows    int
}

// ClosedLoop runs both loop modes and reports the average surviving rank
// per epoch window: the operational view of Fig. 10 (how quickly the
// learning system closes the gap to the known-distribution one).
func ClosedLoop(cfg ClosedLoopConfig, sc Scale) (Figure, error) {
	in, err := BuildInstance(cfg.Workload, sc, 0)
	if err != nil {
		return Figure{}, err
	}
	budget := cfg.Multiplier * instanceBasisCost(in)
	metrics := make([]float64, in.PM.NumLinks())
	mRng := stats.NewRNG(sc.Seed, 1600)
	for i := range metrics {
		metrics[i] = 1 + mRng.Float64()*9
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 8
	}
	window := cfg.Horizon / cfg.Windows
	if window < 1 {
		window = 1
	}

	fig := Figure{
		ID:     fmt.Sprintf("ext-closedloop-%s", cfg.Workload.label()),
		Title:  fmt.Sprintf("Closed loop: static vs learning (%s)", cfg.Workload.label()),
		XLabel: "epoch (window end)",
		YLabel: "avg surviving rank",
	}
	for _, mode := range []struct {
		name string
		mode sim.Mode
	}{{"Static", sim.Static}, {"Learning", sim.Learning}} {
		runner, err := sim.New(sim.Config{
			PM:       in.PM,
			Costs:    in.Costs,
			Budget:   budget,
			Metrics:  metrics,
			Failures: in.Model,
			Horizon:  cfg.Horizon,
			Mode:     mode.mode,
			Model:    in.Model,
			Seed:     sc.Seed,
		})
		if err != nil {
			return Figure{}, err
		}
		reports, err := runner.Run(context.Background(), cfg.Horizon)
		if err != nil {
			return Figure{}, err
		}
		series := Series{Name: mode.name}
		for start := 0; start < len(reports); start += window {
			end := start + window
			if end > len(reports) {
				end = len(reports)
			}
			ranks := make([]float64, 0, end-start)
			for _, rep := range reports[start:end] {
				ranks = append(ranks, float64(rep.Rank))
			}
			series.Points = append(series.Points, Point{
				X:    float64(end),
				Mean: stats.Mean(ranks),
				Std:  stats.StdDev(ranks),
			})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// LearnerDuelConfig parameterizes the LSR vs ε-greedy comparison.
type LearnerDuelConfig struct {
	Workload   Workload
	Multiplier float64
	Horizon    int
	Epsilon    float64
	Windows    int
}

// LearnerDuel races LSR's UCB exploration against the classical ε-greedy
// baseline on the same environment stream, reporting average per-window
// reward (surviving rank). UCB's directed exploration should dominate or
// match at every window.
func LearnerDuel(cfg LearnerDuelConfig, sc Scale) (Figure, error) {
	in, err := BuildInstance(cfg.Workload, sc, 0)
	if err != nil {
		return Figure{}, err
	}
	budget := cfg.Multiplier * instanceBasisCost(in)
	if cfg.Windows <= 0 {
		cfg.Windows = 8
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.2
	}
	window := cfg.Horizon / cfg.Windows
	if window < 1 {
		window = 1
	}

	fig := Figure{
		ID:     fmt.Sprintf("ext-learnerduel-%s", cfg.Workload.label()),
		Title:  fmt.Sprintf("LSR (UCB) vs ε-greedy (%s)", cfg.Workload.label()),
		XLabel: "epoch (window end)",
		YLabel: "avg reward (rank)",
	}

	type stepper interface {
		Step(bandit.Env) ([]int, int, error)
	}
	lsr, err := bandit.New(in.PM, in.Costs, budget, bandit.Options{})
	if err != nil {
		return Figure{}, err
	}
	eg, err := bandit.NewEpsilonGreedy(in.PM, in.Costs, budget, cfg.Epsilon, stats.NewRNG(sc.Seed, 1800))
	if err != nil {
		return Figure{}, err
	}
	learners := []struct {
		name string
		s    stepper
	}{{"LSR", lsr}, {fmt.Sprintf("eps-greedy-%.1f", cfg.Epsilon), eg}}

	for _, l := range learners {
		env := bandit.NewFailureEnv(in.PM, in.Model, stats.NewRNG(sc.Seed, 1900))
		series := Series{Name: l.name}
		var rewards []float64
		for e := 1; e <= cfg.Horizon; e++ {
			_, r, err := l.s.Step(env)
			if err != nil {
				return Figure{}, err
			}
			rewards = append(rewards, float64(r))
			if e%window == 0 || e == cfg.Horizon {
				series.Points = append(series.Points, Point{
					X:    float64(e),
					Mean: stats.Mean(rewards),
					Std:  stats.StdDev(rewards),
				})
				rewards = rewards[:0]
			}
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// RegretConfig parameterizes the regret-curve extension: LSR's cumulative
// regret against the best fixed action on an independent-availability
// environment, the setting of Theorem 10.
type RegretConfig struct {
	Workload    Workload
	Multiplier  float64
	Horizon     int
	Checkpoints int
}

// RegretCurve runs LSR and reports cumulative regret at checkpoints, plus
// the regret normalized by ln(n) — the paper's bound predicts the
// normalized curve flattens.
type RegretCurve struct {
	Epochs     []int
	Regret     []float64
	PerLog     []float64 // Regret / ln(n)
	BestReward float64   // expected per-epoch reward of the comparator
}

// Regret measures LSR's empirical regret curve.
func Regret(cfg RegretConfig, sc Scale) (RegretCurve, error) {
	in, err := BuildInstance(cfg.Workload, sc, 0)
	if err != nil {
		return RegretCurve{}, err
	}
	budget := cfg.Multiplier * instanceBasisCost(in)

	// True per-path availabilities; the environment realizes them
	// independently (Theorem 10's setting).
	theta := er.Availabilities(in.PM, in.Model)

	// Comparator: the action RoMe picks knowing the true θ, valued exactly
	// under independence via a large sample.
	oracle := er.NewThetaBoundInc(in.PM, theta)
	best, err := selection.RoMe(in.PM, in.Costs, budget, oracle, selection.NewOptions())
	if err != nil {
		return RegretCurve{}, err
	}
	evalRng := stats.NewRNG(sc.Seed, 1400)
	const evalRuns = 20000
	sum := 0.0
	for i := 0; i < evalRuns; i++ {
		avail := er.SampleTheta(theta, evalRng)
		var up []int
		for _, q := range best.Selected {
			if avail[q] {
				up = append(up, q)
			}
		}
		sum += float64(in.PM.RankOf(up))
	}
	bestReward := sum / evalRuns

	learner, err := bandit.New(in.PM, in.Costs, budget, bandit.Options{})
	if err != nil {
		return RegretCurve{}, err
	}
	env := bandit.NewThetaEnv(theta, stats.NewRNG(sc.Seed, 1500))

	curve := RegretCurve{BestReward: bestReward}
	if cfg.Checkpoints <= 0 {
		cfg.Checkpoints = 10
	}
	step := cfg.Horizon / cfg.Checkpoints
	if step == 0 {
		step = 1
	}
	for e := 1; e <= cfg.Horizon; e++ {
		if _, _, err := learner.Step(env); err != nil {
			return RegretCurve{}, err
		}
		if e%step == 0 || e == cfg.Horizon {
			regret := bestReward*float64(e) - learner.CumulativeReward()
			curve.Epochs = append(curve.Epochs, e)
			curve.Regret = append(curve.Regret, regret)
			curve.PerLog = append(curve.PerLog, regret/math.Log(float64(e)+1))
		}
	}
	return curve, nil
}
