package tomo

import (
	"math"
	"testing"

	"robusttomo/internal/graph"
	"robusttomo/internal/linalg"
	"robusttomo/internal/routing"
	"robusttomo/internal/topo"
)

// fuzzBytes hands out a fuzz input byte by byte, then zeros once it runs
// out, so every input decodes to an instance.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzInstance is one decoded FuzzSystemVsExact input: a path matrix of
// at most 16 paths over at most 12 links, a subset idx (in any order,
// repeats allowed), integer link metrics x and y = A·x on idx, with one
// measurement shifted by a positive integer when shifted is set.
type fuzzInstance struct {
	pm      *PathMatrix
	idx     []int
	x, y    []float64
	shifted bool
}

// decodeFuzzInstance reads: a link-count byte, a path-count byte, two
// bytes of link bitmask per path, a subset-size byte and one path byte per
// member, one int8 metric per link, then a flag byte whose low bit asks to
// shift the measurement at a row byte by 1 + (amount byte mod 8).
func decodeFuzzInstance(t *testing.T, data []byte) fuzzInstance {
	in := fuzzBytes(data)
	links := 1 + int(in.next())%12
	paths := make([]routing.Path, 1+int(in.next())%16)
	for i := range paths {
		mask := int(in.next()) | int(in.next())<<8
		for j := 0; j < links; j++ {
			if mask&(1<<j) != 0 {
				paths[i].Edges = append(paths[i].Edges, graph.EdgeID(j))
			}
		}
	}
	pm, err := NewPathMatrix(paths, links)
	if err != nil {
		t.Fatal(err)
	}
	inst := fuzzInstance{pm: pm, idx: make([]int, int(in.next())%17), x: make([]float64, links)}
	for k := range inst.idx {
		inst.idx[k] = int(in.next()) % len(paths)
	}
	for j := range inst.x {
		inst.x[j] = float64(int8(in.next()))
	}
	all, _ := pm.TrueMeasurements(inst.x)
	inst.y = make([]float64, len(inst.idx))
	for k, i := range inst.idx {
		inst.y[k] = all[i]
	}
	if in.next()&1 == 1 && len(inst.idx) > 0 {
		row := int(in.next()) % len(inst.idx)
		inst.y[row] += float64(1 + in.next()%8)
		inst.shifted = true
	}
	return inst
}

// fuzzSystemSeed encodes an instance in decodeFuzzInstance's format;
// shift, when given, is the row and the amount byte.
func fuzzSystemSeed(links int, paths [][]int, idx []int, x []int8, shift ...byte) []byte {
	data := []byte{byte(links - 1), byte(len(paths) - 1)}
	for _, p := range paths {
		mask := 0
		for _, j := range p {
			mask |= 1 << j
		}
		data = append(data, byte(mask), byte(mask>>8))
	}
	data = append(data, byte(len(idx)))
	for _, i := range idx {
		data = append(data, byte(i))
	}
	for _, v := range x {
		data = append(data, byte(v))
	}
	if len(shift) == 2 {
		data = append(data, 1, shift[0], shift[1])
	}
	return data
}

// FuzzSystemVsExact is a differential of System against exact big.Rat
// arithmetic on small instances: Rank equals RankExact(A_S); NewSystem
// fails exactly when RankExact([A_S | y]) > RankExact(A_S); Identifiable
// marks exactly the links whose unit vector is a row of the exact reduced
// echelon form, and NumIdentifiable counts them; and Solve is within 1e-9
// of the exact solution on every identifiable link, which is x itself when
// no measurement was shifted.
//
// Seeds: the Section II example with the bridge down and with every path
// (full rank), one path listed twice with equal and with unequal
// measurements, and an empty subset.
func FuzzSystemVsExact(f *testing.F) {
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		f.Fatal(err)
	}
	links := ex.Graph.NumEdges()
	rows := make([][]int, len(paths))
	var all, survivors []int
	for i, p := range paths {
		for _, e := range p.Edges {
			rows[i] = append(rows[i], int(e))
		}
		all = append(all, i)
		if !p.Uses(ex.Bridge) {
			survivors = append(survivors, i)
		}
	}
	x := []int8{5, 8, 7, 7, 8, 7, 4, 4}
	f.Add(fuzzSystemSeed(links, rows, survivors, x))
	f.Add(fuzzSystemSeed(links, rows, all, x))
	f.Add(fuzzSystemSeed(3, [][]int{{0, 1}, {2}}, []int{0, 1, 0}, []int8{2, -3, 4}))
	f.Add(fuzzSystemSeed(3, [][]int{{0, 1}, {2}}, []int{0, 1, 0}, []int8{2, -3, 4}, 2, 0))
	f.Add(fuzzSystemSeed(4, [][]int{{0}, {1, 2, 3}}, nil, []int8{1, 2, 3, 4}))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFuzzInstance(t, data)
		sub := in.pm.Matrix().SelectRows(in.idx)
		aug := linalg.NewMatrix(len(in.idx), in.pm.NumLinks()+1)
		for k := range in.idx {
			copy(aug.Row(k), sub.Row(k))
			aug.Set(k, in.pm.NumLinks(), in.y[k])
		}
		rank := linalg.RankExact(sub)
		consistent := linalg.RankExact(aug) == rank
		exact := exactEchelon(in.pm, in.idx, in.y)
		if exact.rank != rank || exact.consistent != consistent {
			t.Fatalf("exact echelon rank %d consistent %v, RankExact %d consistent %v", exact.rank, exact.consistent, rank, consistent)
		}

		withY, err := NewSystem(in.pm, in.idx, in.y)
		if (err == nil) != consistent {
			t.Fatalf("NewSystem error %v, exact consistent %v", err, consistent)
		}
		noY, err := NewSystem(in.pm, in.idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		systems := []*System{noY}
		if withY != nil {
			systems = append(systems, withY)
		}
		for _, sys := range systems {
			if sys.Rank() != rank {
				t.Fatalf("Rank %d, RankExact %d", sys.Rank(), rank)
			}
			ident := sys.Identifiable()
			for j := range ident {
				if ident[j] != exact.ident[j] {
					t.Fatalf("link %d: Identifiable %v, exact %v", j, ident[j], exact.ident[j])
				}
			}
			if sys.NumIdentifiable() != count(exact.ident) {
				t.Fatalf("NumIdentifiable %d, exact %d", sys.NumIdentifiable(), count(exact.ident))
			}
		}
		if withY == nil {
			return
		}
		values, ident, err := withY.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for j, ok := range ident {
			if !ok {
				continue
			}
			if math.Abs(values[j]-exact.values[j]) > 1e-9 || !in.shifted && math.Abs(values[j]-in.x[j]) > 1e-9 {
				t.Fatalf("link %d solved as %v, exact %v, truth %v (shifted %v)", j, values[j], exact.values[j], in.x[j], in.shifted)
			}
		}
	})
}
