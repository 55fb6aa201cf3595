package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"robusttomo/internal/er"
	"robusttomo/internal/selection"
	"robusttomo/internal/stats"
	"robusttomo/internal/topo"
)

// Golden fingerprints pin MonteRoMe's output at paper scale: the picks, the
// bits of Cost and Objective, and the number of gain evaluations on the
// AS1755/400 workload at every quick-scale monitor set, over a 1000-scenario
// panel with a budget of 0.75 × the cost of a basis (the monterome-as1755
// benchmark job). A change to the greedy loop or the Monte Carlo oracle that
// moves a single pick, the objective or the lazy evaluation count fails
// here.
func TestMonteRoMeGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"AS1755/0": "fadf21d139193f0796bbaf933bc3efb6dd1a60086d9c8a26f9c5a61fac698c65",
		"AS1755/1": "637140ebe2caa282987a995a48bc86b8c22e07546cf5b060a24960435e8a8108",
	}
	sc := QuickScale()
	w := Workload{Preset: topo.AS1755, CandidatePaths: 400}
	for set := 0; set < sc.MonitorSets; set++ {
		in, err := BuildInstance(w, sc, set)
		if err != nil {
			t.Fatal(err)
		}
		oracle := er.NewMonteCarloInc(in.PM, in.Model, 1000, stats.NewRNG(sc.Seed, 0x3C+uint64(set)))
		res, err := selection.RoMe(in.PM, in.Costs, 0.75*instanceBasisCost(in), oracle, selection.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "cost=%x objective=%x evals=%d picks=",
			math.Float64bits(res.Cost), math.Float64bits(res.Objective), res.GainEvaluations)
		for i, q := range res.Selected {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprint(&sb, q)
		}
		key := fmt.Sprintf("%s/%d", w.label(), set)
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
		if got != want[key] {
			t.Errorf("%s MonteRoMe fingerprint = %s, want %s (%d picks, objective %v, %d evaluations)",
				key, got, want[key], len(res.Selected), res.Objective, res.GainEvaluations)
		}
	}
}
