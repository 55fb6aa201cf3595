package linalg

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// sparse converts a dense test vector to the sorted (cols, vals) form every
// SparseBasis operation takes.
func sparse(v []float64) (cols []int, vals []float64) {
	for j, x := range v {
		if x != 0 {
			cols = append(cols, j)
			vals = append(vals, x)
		}
	}
	return cols, vals
}

// dependent is Dependent on a dense test vector, without a support scratch.
func dependent(b *SparseBasis, v []float64) (bool, []int) {
	cols, vals := sparse(v)
	return b.Dependent(cols, vals, nil)
}

// exactRankOfRows is RankExact over the given rows (0 for none).
func exactRankOfRows(rows [][]float64) int {
	if len(rows) == 0 {
		return 0
	}
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return RankExact(m)
}

// exactRef replays a SparseBasis against the exact big.Rat rank: it keeps
// the accepted rows in acceptance order and checks every basis answer.
type exactRef struct {
	members [][]float64
}

// checkAdd checks one Add outcome: v is accepted exactly when the exact
// rank of the accepted rows rises, as the next member index; a rejected
// v's support must be its unique representation.
func (r *exactRef) checkAdd(v []float64, added bool, member int, support []int) error {
	rises := exactRankOfRows(append(r.members[:len(r.members):len(r.members)], v)) > len(r.members)
	if added != rises {
		return fmt.Errorf("Add accepted=%v, exact rank rises=%v", added, rises)
	}
	if !added {
		return r.checkSupport(v, support)
	}
	if member != len(r.members) {
		return fmt.Errorf("accepted as member %d, want %d (acceptance order)", member, len(r.members))
	}
	r.members = append(r.members, append([]float64(nil), v...))
	return nil
}

// checkDependent checks one Dependent outcome against the exact rank.
func (r *exactRef) checkDependent(v []float64, dep bool, support []int) error {
	inSpan := exactRankOfRows(append(r.members[:len(r.members):len(r.members)], v)) == len(r.members)
	if dep != inSpan {
		return fmt.Errorf("Dependent=%v, exact in-span=%v", dep, inSpan)
	}
	if !dep {
		return nil
	}
	return r.checkSupport(v, support)
}

// checkSupport checks that support is exactly the support of v's unique
// representation over the members: v lies in the span of the support
// members and leaves it when any one of them is removed.
func (r *exactRef) checkSupport(v []float64, support []int) error {
	rows := make([][]float64, 0, len(support)+1)
	for _, k := range support {
		if k < 0 || k >= len(r.members) {
			return fmt.Errorf("support %v names a non-member", support)
		}
		rows = append(rows, r.members[k])
	}
	if exactRankOfRows(append(rows, v)) != len(support) {
		return fmt.Errorf("v outside the span of its support %v", support)
	}
	for drop := range support {
		without := append(append([][]float64{}, rows[:drop]...), rows[drop+1:]...)
		if exactRankOfRows(append(without, v)) == len(without) {
			return fmt.Errorf("v stays in the span of support %v without member %d", support, support[drop])
		}
	}
	return nil
}

// checkRepresentation checks that coeffs over the members rebuild v.
func (r *exactRef) checkRepresentation(v, coeffs []float64) error {
	if len(coeffs) != len(r.members) {
		return fmt.Errorf("%d coefficients for %d members", len(coeffs), len(r.members))
	}
	for j := range v {
		x := 0.0
		for k, c := range coeffs {
			x += c * r.members[k][j]
		}
		if math.Abs(x-v[j]) > 1e-9 {
			return fmt.Errorf("representation rebuilds %v at column %d, want %v", x, j, v[j])
		}
	}
	return nil
}

// Differential property against the exact big.Rat rank, on random 0/1
// matrices fed in random order: acceptance decisions, member numbering and
// dependent supports of Add, then Dependent and Representation on fresh
// random integer vectors.
func TestSparseBasisMatchesDense(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 101))
		rows := 1 + rng.IntN(20)
		cols := 1 + rng.IntN(15)
		m := randomBinaryMatrix(rng, rows, cols, 0.25+rng.Float64()*0.4)
		b := NewSparseBasis(cols)
		ref := &exactRef{}
		for _, i := range rng.Perm(rows) {
			added, member, support := b.Add(sparse(m.Row(i)))
			if err := ref.checkAdd(m.Row(i), added, member, support); err != nil {
				t.Logf("seed %d row %d: %v", seed, i, err)
				return false
			}
		}
		if b.Rank() != RankExact(m) {
			t.Logf("seed %d: rank %d, exact %d", seed, b.Rank(), RankExact(m))
			return false
		}
		for trial := 0; trial < 5; trial++ {
			v := make([]float64, cols)
			for j := range v {
				if rng.Float64() < 0.4 {
					v[j] = float64(1 + rng.IntN(3))
				}
			}
			dep, support := dependent(b, v)
			if err := ref.checkDependent(v, dep, support); err != nil {
				t.Logf("seed %d probe %v: %v", seed, v, err)
				return false
			}
			coeffs, ok := b.Representation(sparse(v))
			if ok != dep {
				t.Logf("seed %d probe %v: Representation ok=%v, Dependent=%v", seed, v, ok, dep)
				return false
			}
			if ok {
				if err := ref.checkRepresentation(v, coeffs); err != nil {
					t.Logf("seed %d probe %v: %v", seed, v, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseBasisBasics(t *testing.T) {
	b := NewSparseBasis(4)
	if b.Dim() != 4 || b.Rank() != 0 {
		t.Fatalf("fresh basis: dim %d rank %d", b.Dim(), b.Rank())
	}
	added, member, _ := b.Add(sparse([]float64{1, 1, 0, 0}))
	if !added || member != 0 {
		t.Fatalf("first add: %v %d", added, member)
	}
	added, member, _ = b.Add(sparse([]float64{0, 1, 1, 0}))
	if !added || member != 1 {
		t.Fatalf("second add: %v %d", added, member)
	}
	// Dependent: sum of the two members.
	dep, support := dependent(b, []float64{1, 2, 1, 0})
	if !dep || len(support) != 2 || support[0] != 0 || support[1] != 1 {
		t.Fatalf("Dependent = %v %v", dep, support)
	}
	// Zero vector.
	dep, support = dependent(b, []float64{0, 0, 0, 0})
	if !dep || len(support) != 0 {
		t.Fatalf("zero vector: %v %v", dep, support)
	}
	// Independent probe does not mutate.
	if dep, _ := dependent(b, []float64{0, 0, 0, 1}); dep {
		t.Fatal("independent vector flagged dependent")
	}
	if b.Rank() != 2 {
		t.Fatalf("probe mutated rank: %d", b.Rank())
	}
}

// A CopyFrom target that held other rows becomes an isolated clone of the
// source: it shares no storage with it.
func TestSparseBasisCloneIsolated(t *testing.T) {
	b := NewSparseBasis(3)
	b.Add(sparse([]float64{1, 1, 0}))
	c := NewSparseBasis(3)
	c.Add(sparse([]float64{0, 1, 1}))
	c.Add(sparse([]float64{0, 1, 0}))
	c.CopyFrom(b)
	if c.Rank() != 1 {
		t.Fatalf("copy rank = %d, want 1", c.Rank())
	}
	if added, _, _ := c.Add(sparse([]float64{0, 0, 1})); !added {
		t.Fatal("clone rejected independent vector")
	}
	if b.Rank() != 1 || c.Rank() != 2 {
		t.Fatalf("ranks = %d,%d, want 1,2", b.Rank(), c.Rank())
	}
	// Mutating the clone's accepted rows must not corrupt the original.
	dep, support := dependent(b, []float64{2, 2, 0})
	if !dep || len(support) != 1 {
		t.Fatalf("original basis corrupted: %v %v", dep, support)
	}
}

func TestSparseBasisDimMismatchPanics(t *testing.T) {
	b := NewSparseBasis(3)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	b.Add(sparse([]float64{0, 0, 0, 1}))
}

func TestSparseRowAxpy(t *testing.T) {
	b := NewSparseBasis(6)
	r := sparseRow{cols: []int{1, 3}, vals: []float64{2, 4}}
	b.colCnt[1], b.colCnt[3] = 1, 1 // as if r were stored
	other := sparseRow{cols: []int{0, 3, 5}, vals: []float64{1, -4, 2}}
	b.axpy(&r, 1, &other)
	// Expect: col0=1, col1=2, col3=0 (dropped), col5=2.
	if r.nnz() != 3 {
		t.Fatalf("nnz = %d: %+v", r.nnz(), r)
	}
	if want := []int32{1, 1, 0, 0, 0, 1}; !slices.Equal(b.colCnt, want) {
		t.Fatalf("colCnt = %v after axpy, want %v (fill-ins counted, the cancelled entry dropped)", b.colCnt, want)
	}
	if r.at(0) != 1 || r.at(1) != 2 || r.at(3) != 0 || r.at(5) != 2 {
		t.Fatalf("axpy result: %+v", r)
	}
	if r.at(99) != 0 {
		t.Fatal("missing column should read 0")
	}
}

func TestSparseBasisRepeatedUse(t *testing.T) {
	// Interleave Adds and Dependents heavily to stress scratch reuse,
	// checking every answer against the exact rank.
	rng := rand.New(rand.NewPCG(3, 3))
	b := NewSparseBasis(40)
	ref := &exactRef{}
	for i := 0; i < 200; i++ {
		v := make([]float64, 40)
		for j := range v {
			if rng.Float64() < 0.1 {
				v[j] = 1
			}
		}
		if i%3 == 0 {
			dep, support := dependent(b, v)
			if err := ref.checkDependent(v, dep, support); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			if coeffs, ok := b.Representation(sparse(v)); ok != dep {
				t.Fatalf("iteration %d: Representation ok=%v, Dependent=%v", i, ok, dep)
			} else if ok {
				if err := ref.checkRepresentation(v, coeffs); err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
			}
			continue
		}
		added, member, support := b.Add(sparse(v))
		if err := ref.checkAdd(v, added, member, support); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if b.Rank() != len(ref.members) {
		t.Fatalf("rank %d, exact reference accepted %d", b.Rank(), len(ref.members))
	}
}

func BenchmarkSparseBasisAddPathLike(b *testing.B) {
	// Path-like rows: ~6 nonzeros over 972 columns.
	rng := rand.New(rand.NewPCG(5, 5))
	const dim = 972
	rowCols := make([][]int, 800)
	rowVals := make([][]float64, 800)
	for i := range rowCols {
		v := make([]float64, dim)
		for k := 0; k < 6; k++ {
			v[rng.IntN(dim)] = 1
		}
		rowCols[i], rowVals[i] = sparse(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis := NewSparseBasis(dim)
		for k := range rowCols {
			basis.Add(rowCols[k], rowVals[k])
		}
	}
}

// The per-operation factor and coefficient scratch of a support-tracking
// basis is pre-sized to dim at construction, so Add never pays a growth
// reallocation when the member count crosses a previous capacity (the
// regression this pins down), and warm Dependent probes with a support
// scratch allocate nothing at all. A CopyFrom target keeps its own
// scratch: a rank-only target (one per Monte Carlo class split) still has
// none after copying either mode.
func TestSparseBasisScratchPresized(t *testing.T) {
	dim := 48
	b := NewSparseBasis(dim)
	if cap(b.factorsScratch) != dim || cap(b.coeffsScratch) != dim {
		t.Fatalf("scratch caps = %d/%d, want %d", cap(b.factorsScratch), cap(b.coeffsScratch), dim)
	}
	v := make([]float64, dim)
	for j := 0; j < dim; j++ {
		v[j] = 1
		if dep, _ := dependent(b, v); dep {
			t.Fatalf("unit vector %d dependent", j)
		}
		b.Add(sparse(v))
		v[j] = 0
		if cap(b.factorsScratch) != dim || cap(b.coeffsScratch) != dim {
			t.Fatalf("after %d adds scratch regrew to %d/%d", j+1, cap(b.factorsScratch), cap(b.coeffsScratch))
		}
	}
	ro := NewSparseBasisRankOnly(dim)
	if cap(ro.factorsScratch) != 0 || cap(ro.coeffsScratch) != 0 {
		t.Fatal("rank-only basis pays for scratch it never uses")
	}
	v[0] = 1
	ro.Add(sparse(v))
	for _, src := range []*SparseBasis{ro, b} {
		c := NewSparseBasisRankOnly(dim)
		c.CopyFrom(src)
		if cap(c.factorsScratch) != 0 || cap(c.coeffsScratch) != 0 {
			t.Fatalf("rank-only copy target scratch caps = %d/%d, want 0", cap(c.factorsScratch), cap(c.coeffsScratch))
		}
	}
}

// CopyFrom into a recycled target reuses its storage: copying into a
// target that has held rows as long as the source's allocates nothing, and
// the copy's row headers keep room for the one-row Add that follows a
// Monte Carlo class split. A dimension mismatch panics.
func TestSparseBasisCopyFromRecycles(t *testing.T) {
	dim := 40
	m := randomBinaryMatrix(rand.New(rand.NewPCG(5, 6)), 2*dim, dim, 0.15)
	src := NewSparseBasisRankOnly(dim)
	r := 0
	for ; src.Rank() < dim/2; r++ {
		src.Add(sparse(m.Row(r)))
	}
	dst := NewSparseBasisRankOnly(dim)
	dst.CopyFrom(src)
	if cap(dst.rows) <= dst.Rank() {
		t.Fatalf("copy of rank %d has row-header capacity %d: the next Add regrows it", dst.Rank(), cap(dst.rows))
	}
	for ; dst.Rank() == src.Rank(); r++ {
		dst.Add(sparse(m.Row(r)))
	}
	if avg := testing.AllocsPerRun(50, func() { dst.CopyFrom(src) }); avg != 0 {
		t.Errorf("CopyFrom into a warm target allocates %.2f allocs/op, want 0", avg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across dimensions should panic")
		}
	}()
	NewSparseBasisRankOnly(dim + 1).CopyFrom(src)
}

func TestSparseBasisDependentScratchAllocFree(t *testing.T) {
	dim := 64
	b := NewSparseBasis(dim)
	v := make([]float64, dim)
	for j := 0; j < 20; j++ {
		v[j] = 1
		b.Add(sparse(v))
		v[j] = 0
	}
	probe := make([]float64, dim)
	probe[3], probe[7], probe[11] = 1, 1, 1
	cols, vals := sparse(probe)
	scratch := make([]int, dim)
	if avg := testing.AllocsPerRun(100, func() {
		dep, _ := b.Dependent(cols, vals, scratch)
		if !dep {
			t.Fatal("probe of spanned vector reported independent")
		}
	}); avg != 0 {
		t.Fatalf("warm Dependent with scratch allocates %.1f allocs/op, want 0", avg)
	}
}
