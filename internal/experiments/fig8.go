package experiments

import (
	"fmt"

	"robusttomo/internal/er"
	"robusttomo/internal/selection"
	"robusttomo/internal/stats"
)

// MatroidLossConfig parameterizes Figures 8 and 9: the linear-independence
// setting with unit costs, comparing MatRoMe against SelectPath as the
// candidate-path count grows. Metrics are losses relative to the
// no-failure case: rank loss and link-identifiability loss.
type MatroidLossConfig struct {
	// Base names the topology; its CandidatePaths field is ignored in
	// favor of PathCounts.
	Base Workload
	// PathCounts is the x axis: candidate-path counts evaluated.
	PathCounts []int
}

// MatroidLossResult carries both loss figures from one pass.
type MatroidLossResult struct {
	RankLoss  Figure // Figure 8
	IdentLoss Figure // Figure 9
}

// MatroidLoss reproduces Figures 8 and 9.
func MatroidLoss(cfg MatroidLossConfig, sc Scale) (MatroidLossResult, error) {
	res := MatroidLossResult{
		RankLoss: Figure{
			ID:     fmt.Sprintf("fig8-%s", cfg.Base.label()),
			Title:  fmt.Sprintf("Rank loss under linear independence (%s)", cfg.Base.label()),
			XLabel: "candidate paths",
			YLabel: "rank loss",
		},
		IdentLoss: Figure{
			ID:     fmt.Sprintf("fig9-%s", cfg.Base.label()),
			Title:  fmt.Sprintf("Link identifiability loss under linear independence (%s)", cfg.Base.label()),
			XLabel: "candidate paths",
			YLabel: "identifiability loss",
		},
	}

	algs := []string{AlgMatRoMe, AlgSelectPath}
	rankLoss := map[string]map[int][]float64{}
	identLoss := map[string]map[int][]float64{}
	for _, alg := range algs {
		rankLoss[alg] = map[int][]float64{}
		identLoss[alg] = map[int][]float64{}
	}

	// Trial = one (path count, monitor set) pair; stream 700+set*13+count
	// depends only on the pair, so trials are independent.
	type cell struct {
		rankLoss, identLoss [][]float64 // per algorithm, in algs order
	}
	cells := make([]cell, len(cfg.PathCounts)*sc.MonitorSets)
	err := forTrials(effectiveWorkers(sc.Workers), len(cells), sc.Progress, func(trial int) error {
		count := cfg.PathCounts[trial/sc.MonitorSets]
		set := trial % sc.MonitorSets
		w := cfg.Base
		w.CandidatePaths = count
		in, err := BuildInstance(w, sc, set)
		if err != nil {
			return err
		}
		// Unit costs; budget = rank of the full candidate set, per the
		// paper's matroid setting.
		budget := in.PM.Rank()

		ea := er.Availabilities(in.PM, in.Model)
		mat, err := selection.MatRoMe(in.PM, ea, budget)
		if err != nil {
			return err
		}
		sp := selection.SelectPath(in.PM)

		scRng := stats.NewRNG(sc.Seed, 700+uint64(set)*13+uint64(count))
		scenarios := in.Model.SampleN(scRng, sc.Scenarios)

		c := cell{rankLoss: make([][]float64, len(algs)), identLoss: make([][]float64, len(algs))}
		for a, idx := range [][]int{mat.Selected, sp} {
			baseRankInt, baseIdentInt := in.PM.RankAndIdentifiable(idx)
			baseRank, baseIdent := float64(baseRankInt), float64(baseIdentInt)
			ranks, idents := in.EvalMetrics(idx, scenarios, true)
			for s := range scenarios {
				c.rankLoss[a] = append(c.rankLoss[a], baseRank-ranks[s])
				c.identLoss[a] = append(c.identLoss[a], baseIdent-idents[s])
			}
		}
		cells[trial] = c
		return nil
	})
	if err != nil {
		return MatroidLossResult{}, err
	}
	for ci, count := range cfg.PathCounts {
		for set := 0; set < sc.MonitorSets; set++ {
			c := cells[ci*sc.MonitorSets+set]
			for a, alg := range algs {
				rankLoss[alg][count] = append(rankLoss[alg][count], c.rankLoss[a]...)
				identLoss[alg][count] = append(identLoss[alg][count], c.identLoss[a]...)
			}
		}
	}

	for _, alg := range algs {
		rs := Series{Name: alg}
		is := Series{Name: alg}
		for _, count := range cfg.PathCounts {
			rl := rankLoss[alg][count]
			il := identLoss[alg][count]
			rs.Points = append(rs.Points, Point{X: float64(count), Mean: stats.Mean(rl), Std: stats.StdDev(rl)})
			is.Points = append(is.Points, Point{X: float64(count), Mean: stats.Mean(il), Std: stats.StdDev(il)})
		}
		res.RankLoss.Series = append(res.RankLoss.Series, rs)
		res.IdentLoss.Series = append(res.IdentLoss.Series, is)
	}
	return res, nil
}
