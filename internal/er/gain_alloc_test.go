package er

import (
	"testing"

	"robusttomo/internal/tomo"
)

// committedProbes commits the first 40 candidates of AS1755/120 through add
// and returns a dependent uncommitted path whose representation needs at
// least two committed paths, and an independent one.
func committedProbes(t *testing.T, pm *tomo.PathMatrix, add func(int)) (dependent, independent int) {
	t.Helper()
	committed := idxUpTo(40)
	for _, q := range committed {
		add(q)
	}
	rank := pm.RankOf(committed)
	dependent, independent = -1, -1
	for q := len(committed); q < pm.NumPaths(); q++ {
		grows := pm.RankOf(append(committed[:len(committed):len(committed)], q)) > rank
		switch {
		case grows && independent < 0:
			independent = q
		case !grows && dependent < 0 && len(pm.Path(q).Edges) > 1:
			dependent = q
		}
	}
	if dependent < 0 || independent < 0 {
		t.Fatalf("no dependent (%d) or independent (%d) probe path", dependent, independent)
	}
	return dependent, independent
}

// gainAllocs fails unless warm Gain calls on both probe paths allocate
// nothing.
func gainAllocs(t *testing.T, oracle Incremental, paths int, probes ...int) {
	t.Helper()
	for q := 0; q < paths; q++ {
		oracle.Gain(q)
	}
	for _, q := range probes {
		if avg := testing.AllocsPerRun(100, func() { oracle.Gain(q) }); avg != 0 {
			t.Errorf("warm Gain(%d) allocates %.2f allocs/op, want 0", q, avg)
		}
	}
}

// ThetaBoundInc's Gain probes with the path matrix's sorted row and a
// support scratch sized to the link count, so a warm Gain, dependent or
// not, allocates nothing.
func TestThetaBoundIncGainZeroAlloc(t *testing.T) {
	pm, _ := rocketfuelInstance(t, 120, 2)
	theta := make([]float64, pm.NumPaths())
	for i := range theta {
		theta[i] = 0.5 + float64(i%7)/20
	}
	tb := NewThetaBoundInc(pm, theta)
	dep, indep := committedProbes(t, pm, tb.Add)
	if g := tb.Gain(dep); g <= 0 || g >= theta[dep] {
		t.Fatalf("dependent probe gain %v outside (0, θ=%v)", g, theta[dep])
	}
	gainAllocs(t, tb, pm.NumPaths(), dep, indep)
}

// ProbBoundInc's Gain probes with the path matrix's sorted row and a
// support scratch, and dependentGain marks links in a generation-stamped
// per-link array instead of two maps, so a warm Gain allocates nothing.
func TestProbBoundIncGainZeroAlloc(t *testing.T) {
	pm, model := rocketfuelInstance(t, 120, 2)
	pb := NewProbBoundInc(pm, model)
	dep, indep := committedProbes(t, pm, pb.Add)
	if g := pb.Gain(dep); g <= 0 || g >= pb.ea[dep] {
		t.Fatalf("dependent probe gain %v outside (0, EA=%v)", g, pb.ea[dep])
	}
	gainAllocs(t, pb, pm.NumPaths(), dep, indep)
}
