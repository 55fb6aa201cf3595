package tomo

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/linalg"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/topo"
)

// examplePM builds the Section II example path matrix (15 paths, 8 links).
func examplePM(t *testing.T) (*topo.Example, *PathMatrix) {
	t.Helper()
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	return ex, pm
}

func TestNewPathMatrixValidation(t *testing.T) {
	if _, err := NewPathMatrix(nil, 0); err == nil {
		t.Fatal("zero links accepted")
	}
	bad := []routing.Path{{Src: 0, Dst: 1, Edges: []graph.EdgeID{5}}}
	if _, err := NewPathMatrix(bad, 3); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestExampleMatrixFullRank(t *testing.T) {
	_, pm := examplePM(t)
	if pm.NumPaths() != 15 || pm.NumLinks() != 8 {
		t.Fatalf("matrix is %dx%d, want 15x8", pm.NumPaths(), pm.NumLinks())
	}
	// As in the paper's example, the candidate set identifies all links.
	if got := pm.Rank(); got != 8 {
		t.Fatalf("Rank = %d, want 8", got)
	}
}

func TestRowIncidence(t *testing.T) {
	_, pm := examplePM(t)
	for i := 0; i < pm.NumPaths(); i++ {
		row := pm.Matrix().Row(i)
		ones := 0
		for _, v := range row {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatalf("row %d has non-binary entry %v", i, v)
			}
		}
		if ones != pm.Path(i).Hops() {
			t.Fatalf("row %d has %d ones, path has %d hops", i, ones, pm.Path(i).Hops())
		}
	}
}

func TestAvailabilityUnderBridgeFailure(t *testing.T) {
	ex, pm := examplePM(t)
	sc := failure.Scenario{Failed: make([]bool, pm.NumLinks())}
	sc.Failed[ex.Bridge] = true

	all := make([]int, pm.NumPaths())
	for i := range all {
		all[i] = i
	}
	surviving := pm.Surviving(all, sc)
	// Cross-cluster paths (except the direct m1-m4 link) die: 9 pairs cross,
	// one of them (m1,m4) uses the direct link, so 15 - 8 = 7 survive.
	if len(surviving) != 7 {
		t.Fatalf("surviving = %d paths, want 7", len(surviving))
	}
	for _, i := range surviving {
		if pm.Path(i).Uses(ex.Bridge) {
			t.Fatalf("path %d uses the failed bridge", i)
		}
	}
	// Surviving rank: two 3-monitor stars give 3 each, plus the direct link = 7.
	if got := pm.RankUnder(all, sc); got != 7 {
		t.Fatalf("rank under bridge failure = %d, want 7", got)
	}
}

func TestRankOfEmpty(t *testing.T) {
	_, pm := examplePM(t)
	if pm.RankOf(nil) != 0 {
		t.Fatal("empty subset should have rank 0")
	}
}

// Property: the sparse-basis RankOf agrees with the exact big.Rat rank of
// the dense sub-matrix on random subsets.
func TestRankOfMatchesDense(t *testing.T) {
	_, pm := examplePM(t)
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 8))
		var idx []int
		for i := 0; i < pm.NumPaths(); i++ {
			if rng.Float64() < 0.6 {
				idx = append(idx, i)
			}
		}
		want := 0
		if len(idx) > 0 {
			want = linalg.RankExact(pm.Matrix().SelectRows(idx))
		}
		return pm.RankOf(idx) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// monitorPairsPM builds the path matrix of the first candidates shortest
// paths between k seeded random sources and k destinations on tp, k*k >=
// candidates, the experiments harness's placement.
func monitorPairsPM(t *testing.T, tp *topo.Topology, candidates int, seed uint64) *PathMatrix {
	t.Helper()
	k := 1
	for k*k < candidates {
		k++
	}
	pool := append(append([]graph.NodeID{}, tp.Access...), tp.Core...)
	picked := stats.SampleWithoutReplacement(stats.NewRNG(seed, 0xF0), len(pool), 2*k)
	sources := make([]graph.NodeID, k)
	dests := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		sources[i] = pool[picked[i]]
		dests[i] = pool[picked[k+i]]
	}
	paths, err := routing.MonitorPairs(tp.Graph, sources, dests)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPathMatrix(paths[:min(len(paths), candidates)], tp.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// benchPM is the 60-node, 130-link bench topology of the figure benchmarks
// with 100 candidate paths.
func benchPM(t *testing.T) *PathMatrix {
	t.Helper()
	tp, err := topo.Generate(topo.Config{Name: "bench", Nodes: 60, Links: 130, PoPs: 5, Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	return monitorPairsPM(t, tp, 100, 1)
}

// as1755PM is AS1755 with 400 candidate paths.
func as1755PM(t *testing.T) *PathMatrix {
	t.Helper()
	tp, err := topo.Preset(topo.AS1755)
	if err != nil {
		t.Fatal(err)
	}
	return monitorPairsPM(t, tp, 400, 2)
}

// RankAndIdentifiable counts single-entry rows of the reduced basis, and
// System solves on a support-tracking basis; both must give the rank and
// identifiable count of the exact big.Rat reduced echelon form on random
// subsets at several densities of the Section II example, the bench
// topology and AS1755/400.
func TestRankAndIdentifiable(t *testing.T) {
	_, example := examplePM(t)
	for _, inst := range []struct {
		name   string
		pm     *PathMatrix
		trials int
	}{
		{"example", example, 20},
		{"bench", benchPM(t), 20},
		{"AS1755/400", as1755PM(t), 25},
	} {
		pm := inst.pm
		rng := stats.NewRNG(17, 9)
		basis := pm.NewRankBasis()
		seen := map[int]bool{}
		for _, density := range []float64{0.05, 0.2, 0.5, 0.9} {
			for trial := 0; trial < inst.trials; trial++ {
				var idx []int
				for i := 0; i < pm.NumPaths(); i++ {
					if rng.Float64() < density {
						idx = append(idx, i)
					}
				}
				exact := exactEchelon(pm, idx, nil)
				sys, err := NewSystem(pm, idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				rank, ident := pm.RankAndIdentifiable(idx)
				rankWith, identWith := pm.RankAndIdentifiableWith(idx, basis)
				if rank != exact.rank || ident != count(exact.ident) || rankWith != rank || identWith != ident ||
					sys.Rank() != rank || sys.NumIdentifiable() != ident {
					t.Fatalf("%s density %v trial %d (%d paths): RankAndIdentifiable %d/%d, With %d/%d, System %d/%d, exact %d/%d",
						inst.name, density, trial, len(idx), rank, ident, rankWith, identWith, sys.Rank(), sys.NumIdentifiable(), exact.rank, count(exact.ident))
				}
				seen[ident] = true
			}
		}
		if len(seen) < 3 {
			t.Fatalf("%s: identifiable counts %v barely vary; the differential is vacuous", inst.name, seen)
		}
	}
}

// A path may list its links out of order and more than once. Its row must
// still hold each link once, sorted, and every rank answer must equal the
// clean path's.
func TestNewPathMatrixUnsortedRepeatedLinks(t *testing.T) {
	clean := benchPM(t)
	messy := make([]routing.Path, clean.NumPaths())
	for i := range messy {
		p := clean.Path(i)
		edges := slices.Clone(p.Edges)
		slices.Reverse(edges)
		edges = append(edges, p.Edges[0], p.Edges[len(p.Edges)/2], p.Edges[0])
		messy[i] = routing.Path{Src: p.Src, Dst: p.Dst, Edges: edges}
	}
	pm, err := NewPathMatrix(messy, clean.NumLinks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pm.NumPaths(); i++ {
		cols, vals := pm.SparseRow(i)
		want := pm.EdgesOf(i)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(cols, want) || len(vals) != len(cols) {
			t.Fatalf("path %d: row cols %v (%d vals), want %v", i, cols, len(vals), want)
		}
		for _, v := range vals {
			if v != 1 {
				t.Fatalf("path %d: row value %v, want 1", i, v)
			}
		}
		if cleanCols, _ := clean.SparseRow(i); !slices.Equal(cols, cleanCols) {
			t.Fatalf("path %d: row %v, clean row %v", i, cols, cleanCols)
		}
		if len(pm.Path(i).Edges) != len(messy[i].Edges) {
			t.Fatalf("path %d: the stored path lost its given link list", i)
		}
	}
	rng := stats.NewRNG(5, 5)
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(pm.NumPaths())
		idx := order[:1+rng.IntN(len(order))]
		if got, want := pm.RankOf(idx), clean.RankOf(idx); got != want {
			t.Fatalf("trial %d: RankOf %d, clean %d", trial, got, want)
		}
		if got, want := pm.SelectBasisIndices(order), clean.SelectBasisIndices(order); !slices.Equal(got, want) {
			t.Fatalf("trial %d: SelectBasisIndices %v, clean %v", trial, got, want)
		}
	}
}

// RankOfWith and RankAndIdentifiableWith on a warm caller-held basis
// allocate nothing: rows come from the matrix's sorted row cache, and the
// identifiable count reads the reduced rows instead of probing each link.
func TestRankOfWithZeroAlloc(t *testing.T) {
	pm := benchPM(t)
	idx := make([]int, 0, pm.NumPaths())
	for i := 0; i < pm.NumPaths(); i += 2 {
		idx = append(idx, i)
	}
	basis := pm.NewRankBasis()
	want := pm.RankOfWith(idx, basis)
	if avg := testing.AllocsPerRun(50, func() {
		if pm.RankOfWith(idx, basis) != want {
			t.Fatal("rank changed between calls")
		}
	}); avg != 0 {
		t.Fatalf("warm RankOfWith allocates %.2f allocs/op, want 0", avg)
	}
}

func TestRankAndIdentifiableWithZeroAlloc(t *testing.T) {
	pm := benchPM(t)
	idx := make([]int, 0, pm.NumPaths())
	for i := 0; i < pm.NumPaths(); i += 2 {
		idx = append(idx, i)
	}
	basis := pm.NewRankBasis()
	wantRank, wantIdent := pm.RankAndIdentifiableWith(idx, basis)
	if wantIdent == 0 {
		t.Fatal("no identifiable link; pick a richer subset")
	}
	if avg := testing.AllocsPerRun(50, func() {
		if r, i := pm.RankAndIdentifiableWith(idx, basis); r != wantRank || i != wantIdent {
			t.Fatal("answer changed between calls")
		}
	}); avg != 0 {
		t.Fatalf("warm RankAndIdentifiableWith allocates %.2f allocs/op, want 0", avg)
	}
}

func TestSelectBasisIndices(t *testing.T) {
	_, pm := examplePM(t)
	order := make([]int, pm.NumPaths())
	for i := range order {
		order[i] = i
	}
	basis := pm.SelectBasisIndices(order)
	if len(basis) != 8 {
		t.Fatalf("basis size = %d, want 8", len(basis))
	}
	if pm.RankOf(basis) != 8 {
		t.Fatalf("basis rank = %d, want 8", pm.RankOf(basis))
	}
}

func TestLinkCoverage(t *testing.T) {
	_, pm := examplePM(t)
	all := make([]int, pm.NumPaths())
	for i := range all {
		all[i] = i
	}
	cov := pm.LinkCoverage(all)
	total := 0
	for _, c := range cov {
		if c == 0 {
			t.Fatalf("coverage has uncovered link in full-rank example: %v", cov)
		}
		total += c
	}
	wantTotal := 0
	for i := 0; i < pm.NumPaths(); i++ {
		wantTotal += pm.Path(i).Hops()
	}
	if total != wantTotal {
		t.Fatalf("coverage sums to %d, want %d", total, wantTotal)
	}
	if got := pm.UncoveredLinks(); got != nil {
		t.Fatalf("UncoveredLinks = %v", got)
	}
	// Restricting to one cluster's paths leaves the other cluster's links
	// uncovered.
	var cluster []int
	for i := 0; i < pm.NumPaths(); i++ {
		p := pm.Path(i)
		if p.Src <= 2 && p.Dst <= 2 {
			cluster = append(cluster, i)
		}
	}
	cov = pm.LinkCoverage(cluster)
	for l := 3; l <= 6; l++ {
		if cov[l] != 0 {
			t.Fatalf("cluster paths cover far link %d", l)
		}
	}
}

func TestEdgesOf(t *testing.T) {
	_, pm := examplePM(t)
	for i := 0; i < pm.NumPaths(); i++ {
		edges := pm.EdgesOf(i)
		if len(edges) != pm.Path(i).Hops() {
			t.Fatalf("EdgesOf(%d) = %v", i, edges)
		}
	}
}

func TestPathsReturnsCopy(t *testing.T) {
	_, pm := examplePM(t)
	ps := pm.Paths()
	ps[0] = routing.Path{}
	if pm.Path(0).Hops() == 0 {
		t.Fatal("Paths aliases internal storage")
	}
}

// Property: RankUnder never exceeds the no-failure rank, and equals it for
// the empty scenario.
func TestRankUnderMonotone(t *testing.T) {
	_, pm := examplePM(t)
	all := make([]int, pm.NumPaths())
	for i := range all {
		all[i] = i
	}
	noFail := failure.Scenario{Failed: make([]bool, pm.NumLinks())}
	if pm.RankUnder(all, noFail) != pm.Rank() {
		t.Fatal("no-failure rank mismatch")
	}
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		sc := failure.Scenario{Failed: make([]bool, pm.NumLinks())}
		for i := range sc.Failed {
			sc.Failed[i] = rng.Float64() < 0.3
		}
		return pm.RankUnder(all, sc) <= pm.Rank()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTrueMeasurements(t *testing.T) {
	_, pm := examplePM(t)
	x := make([]float64, pm.NumLinks())
	for i := range x {
		x[i] = float64(i + 1)
	}
	y, err := pm.TrueMeasurements(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pm.NumPaths(); i++ {
		want := 0.0
		for _, e := range pm.Path(i).Edges {
			want += x[e]
		}
		if math.Abs(y[i]-want) > 1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
	if _, err := pm.TrueMeasurements(x[:2]); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}
