package tomo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"robusttomo/internal/failure"
)

func allIdx(pm *PathMatrix) []int {
	idx := make([]int, pm.NumPaths())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestSystemFullIdentifiability(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = 1 + float64(i)*0.5
	}
	y, err := pm.TrueMeasurements(x)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(pm, allIdx(pm), y)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rank() != 8 {
		t.Fatalf("Rank = %d, want 8", sys.Rank())
	}
	if sys.NumIdentifiable() != 8 {
		t.Fatalf("identifiable = %d, want all 8", sys.NumIdentifiable())
	}
	values, ident, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for j := range x {
		if !ident[j] {
			t.Fatalf("link %d not identifiable", j)
		}
		if math.Abs(values[j]-x[j]) > 1e-8 {
			t.Fatalf("link %d solved as %v, want %v", j, values[j], x[j])
		}
	}
}

func TestSystemUnderBridgeFailure(t *testing.T) {
	ex, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = float64(i + 1)
	}
	yAll, _ := pm.TrueMeasurements(x)

	sc := failure.Scenario{Failed: make([]bool, pm.NumLinks())}
	sc.Failed[ex.Bridge] = true
	surv := pm.Surviving(allIdx(pm), sc)
	y := make([]float64, len(surv))
	for k, i := range surv {
		y[k] = yAll[i]
	}
	sys, err := NewSystem(pm, surv, y)
	if err != nil {
		t.Fatal(err)
	}
	ident := sys.Identifiable()
	// The bridge link itself cannot be identified; every other link can:
	// two full 3-monitor stars identify their 3 links each, and the direct
	// m1-m4 link is probed alone.
	for j := range ident {
		wantIdent := j != int(ex.Bridge)
		if ident[j] != wantIdent {
			t.Fatalf("link %d identifiable = %v, want %v", j, ident[j], wantIdent)
		}
	}
	values, _, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for j := range x {
		if j == int(ex.Bridge) {
			continue
		}
		if math.Abs(values[j]-x[j]) > 1e-8 {
			t.Fatalf("link %d = %v, want %v", j, values[j], x[j])
		}
	}
}

func TestSystemIdentifiabilityWithoutMeasurements(t *testing.T) {
	_, pm := examplePM(t)
	sys, err := NewSystem(pm, allIdx(pm), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumIdentifiable() != 8 {
		t.Fatalf("identifiable = %d", sys.NumIdentifiable())
	}
	if _, _, err := sys.Solve(); err == nil {
		t.Fatal("Solve without measurements should fail")
	}
}

func TestSystemInconsistentMeasurements(t *testing.T) {
	_, pm := examplePM(t)
	// Duplicate a path with two different measurements: inconsistent.
	idx := []int{0, 0}
	y := []float64{1, 2}
	if _, err := NewSystem(pm, idx, y); err == nil {
		t.Fatal("inconsistent system accepted")
	}
}

func TestSystemTolValidation(t *testing.T) {
	_, pm := examplePM(t)
	for _, tol := range []float64{0, -1, 0.5, 1, math.NaN()} {
		if _, err := NewSystemTol(pm, []int{0}, nil, tol); err == nil {
			t.Fatalf("tolerance %v accepted", tol)
		}
	}
}

// A NaN or infinite measurement is an error naming it, never a system
// whose solved values come out NaN.
func TestSystemRejectsNonFiniteMeasurements(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = 1 + float64(i)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 7, pm.NumPaths() - 1} {
			y, _ := pm.TrueMeasurements(x)
			y[at] = bad
			_, err := NewSystemTol(pm, allIdx(pm), y, 1e-6)
			if err == nil {
				t.Fatalf("measurement %v at %d accepted", bad, at)
			}
			if want := fmt.Sprintf("measurement %d (path %d) is %v", at, at, bad); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
	}
}

// NewReconstructor rejects a NaN or infinite measurement with an error
// naming it by index and path, instead of reconstructing every path as NaN
// (the implied value sums c·y over every accepted member, and 0·NaN is
// NaN). Finite measurements reconstruct every path exactly as before.
func TestReconstructorRejectsNonFiniteMeasurements(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = 1 + float64(i)
	}
	idx := allIdx(pm)[1:] // measurement k is path k+1's
	yAll, _ := pm.TrueMeasurements(x)
	rc, err := NewReconstructor(pm, idx, yAll[1:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if got, ok := rc.Reconstruct(i); !ok || got != yAll[i] {
			t.Fatalf("finite input: path %d reconstructed as %v (%v), want %v", i, got, ok, yAll[i])
		}
	}
	for k, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		at := 6 * k
		y := append([]float64(nil), yAll[1:]...)
		y[at] = bad
		_, err := NewReconstructor(pm, idx, y)
		if err == nil {
			t.Fatalf("measurement %v at %d accepted", bad, at)
		}
		if want := fmt.Sprintf("measurement %d (path %d) is %v", at, idx[at], bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

func TestSystemTolReconcilesNoisyRedundancy(t *testing.T) {
	_, pm := examplePM(t)
	// Same path twice with measurements differing by less than the
	// tolerance: accepted and reconciled; more than the tolerance:
	// rejected as inconsistent.
	if _, err := NewSystemTol(pm, []int{0, 0}, []float64{1.0, 1.005}, 0.05); err != nil {
		t.Fatalf("sub-tolerance disagreement rejected: %v", err)
	}
	if _, err := NewSystemTol(pm, []int{0, 0}, []float64{1.0, 2.0}, 0.05); err == nil {
		t.Fatal("super-tolerance disagreement accepted")
	}
}

func TestSystemMeasurementCountMismatch(t *testing.T) {
	_, pm := examplePM(t)
	if _, err := NewSystem(pm, []int{0, 1}, []float64{1}); err == nil {
		t.Fatal("measurement count mismatch accepted")
	}
}

// Property: identifiability as computed on the sparse basis agrees with
// the definitional test e_j ∈ rowspace(A_S), decided exactly (a row of the
// big.Rat reduced echelon form equals e_j), for random subsets.
func TestIdentifiabilityMatchesRowSpaceTest(t *testing.T) {
	_, pm := examplePM(t)
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		var idx []int
		for i := 0; i < pm.NumPaths(); i++ {
			if rng.Float64() < 0.5 {
				idx = append(idx, i)
			}
		}
		sys, err := NewSystem(pm, idx, nil)
		if err != nil {
			return false
		}
		ident := sys.Identifiable()
		exact := exactEchelon(pm, idx, nil)
		for j := 0; j < pm.NumLinks(); j++ {
			if ident[j] != exact.ident[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructorRecoversAllMeasurements(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = 2 + float64(i%3)
	}
	yAll, _ := pm.TrueMeasurements(x)

	// Probe a basis found by first-come scan.
	basis := pm.SelectBasisIndices(allIdx(pm))
	yBasis := make([]float64, len(basis))
	for k, i := range basis {
		yBasis[k] = yAll[i]
	}
	rc, err := NewReconstructor(pm, basis, yBasis)
	if err != nil {
		t.Fatal(err)
	}
	if rc.BasisSize() != 8 {
		t.Fatalf("BasisSize = %d, want 8", rc.BasisSize())
	}
	if rc.CoverageCount() != pm.NumPaths() {
		t.Fatalf("coverage = %d, want all %d", rc.CoverageCount(), pm.NumPaths())
	}
	for i := 0; i < pm.NumPaths(); i++ {
		got, ok := rc.Reconstruct(i)
		if !ok {
			t.Fatalf("path %d not reconstructable", i)
		}
		if math.Abs(got-yAll[i]) > 1e-8 {
			t.Fatalf("path %d reconstructed as %v, want %v", i, got, yAll[i])
		}
	}
}

func TestReconstructorPartialSpan(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = 1
	}
	yAll, _ := pm.TrueMeasurements(x)
	// Probe only the three paths within the first monitor cluster
	// (m1-m2, m1-m3, m2-m3): their span cannot cover cross paths.
	var idx []int
	for i := 0; i < pm.NumPaths(); i++ {
		p := pm.Path(i)
		if p.Src <= 2 && p.Dst <= 2 {
			idx = append(idx, i)
		}
	}
	if len(idx) != 3 {
		t.Fatalf("cluster paths = %d, want 3", len(idx))
	}
	y := make([]float64, len(idx))
	for k, i := range idx {
		y[k] = yAll[i]
	}
	rc, err := NewReconstructor(pm, idx, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range idx {
		got, ok := rc.Reconstruct(i)
		if !ok || math.Abs(got-yAll[i]) > 1e-8 {
			t.Fatalf("probed path %d not reproduced: %v %v", i, got, ok)
		}
	}
	// A cross path must not be reconstructable.
	for i := 0; i < pm.NumPaths(); i++ {
		p := pm.Path(i)
		if p.Src <= 2 && p.Dst >= 3 {
			if _, ok := rc.Reconstruct(i); ok {
				t.Fatalf("cross path %d claimed reconstructable", i)
			}
			break
		}
	}
}

func TestReconstructorDropsDependentProbes(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = 1
	}
	yAll, _ := pm.TrueMeasurements(x)
	rc, err := NewReconstructor(pm, allIdx(pm), yAll)
	if err != nil {
		t.Fatal(err)
	}
	if rc.BasisSize() != 8 {
		t.Fatalf("BasisSize = %d, want 8 (dependent probes dropped)", rc.BasisSize())
	}
	if _, err := NewReconstructor(pm, []int{0}, nil); err == nil {
		t.Fatal("mismatched measurements accepted")
	}
}

// Path indices outside [0, NumPaths) are errors from the constructors and
// ok=false from Reconstruct, never an out-of-range panic.
func TestSystemAndReconstructorRejectBadIndices(t *testing.T) {
	_, pm := examplePM(t)
	for _, bad := range []int{-1, pm.NumPaths()} {
		if _, err := NewSystem(pm, []int{0, bad}, nil); err == nil {
			t.Fatalf("NewSystem accepted path index %d", bad)
		}
		if _, err := NewSystemTol(pm, []int{bad}, []float64{1}, 1e-6); err == nil {
			t.Fatalf("NewSystemTol accepted path index %d", bad)
		}
		if _, err := NewReconstructor(pm, []int{bad, 0}, []float64{1, 2}); err == nil {
			t.Fatalf("NewReconstructor accepted path index %d", bad)
		}
	}
	rc, err := NewReconstructor(pm, allIdx(pm), make([]float64, pm.NumPaths()))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, pm.NumPaths()} {
		if v, ok := rc.Reconstruct(bad); ok || v != 0 {
			t.Fatalf("Reconstruct(%d) = %v, %v; want 0, false", bad, v, ok)
		}
	}
}
