package tomo

import (
	"math/rand/v2"
	"slices"
	"testing"

	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
)

// A 4-node path graph 0—1—2—3 (links 0,1,2) with paths chosen so that the
// endpoints are confusable but the interior nodes are not.
func TestNodeIdentifiability(t *testing.T) {
	paths := []routing.Path{
		{Src: 0, Dst: 3, Edges: []graph.EdgeID{0, 1, 2}}, // path 0: whole chain
		{Src: 1, Dst: 2, Edges: []graph.EdgeID{1}},       // path 1: middle link
	}
	pm, err := NewPathMatrix(paths, 3)
	if err != nil {
		t.Fatal(err)
	}
	incidence := [][]int{{0}, {0, 1}, {1, 2}, {2}}

	ni, err := pm.NodeIdentifiability([]int{0, 1}, incidence)
	if err != nil {
		t.Fatal(err)
	}
	// Signatures over (path0, path1): node 0 → {0}, node 1 → {0,1},
	// node 2 → {0,1}, node 3 → {0}. All covered; all confusable in pairs.
	if ni.NumCovered != 4 {
		t.Fatalf("NumCovered = %d, want 4", ni.NumCovered)
	}
	if ni.NumIdentifiable != 0 {
		t.Fatalf("NumIdentifiable = %d, want 0 (two confusable pairs)", ni.NumIdentifiable)
	}

	// Selecting only the chain path leaves every node with signature {0}:
	// covered but fully confusable.
	ni, err = pm.NodeIdentifiability([]int{0}, incidence)
	if err != nil {
		t.Fatal(err)
	}
	if ni.NumCovered != 4 || ni.NumIdentifiable != 0 {
		t.Fatalf("chain only: covered %d identifiable %d, want 4/0", ni.NumCovered, ni.NumIdentifiable)
	}

	// Adding per-link probes separates every node: signatures become
	// {0,p01}, {0,p01,p12}, {0,p12,p23}, {0,p23} — all distinct.
	paths = append(paths,
		routing.Path{Src: 0, Dst: 1, Edges: []graph.EdgeID{0}},
		routing.Path{Src: 2, Dst: 3, Edges: []graph.EdgeID{2}},
	)
	pm, err = NewPathMatrix(paths, 3)
	if err != nil {
		t.Fatal(err)
	}
	ni, err = pm.NodeIdentifiability([]int{0, 1, 2, 3}, incidence)
	if err != nil {
		t.Fatal(err)
	}
	if ni.NumCovered != 4 || ni.NumIdentifiable != 4 {
		t.Fatalf("full probes: covered %d identifiable %d, want 4/4", ni.NumCovered, ni.NumIdentifiable)
	}
	for v, id := range ni.Identifiable {
		if !id || !ni.Covered[v] {
			t.Fatalf("node %d: covered=%v identifiable=%v", v, ni.Covered[v], id)
		}
	}
}

// A node none of whose incident links is traversed stays uncovered and
// unidentifiable.
func TestNodeIdentifiabilityUncovered(t *testing.T) {
	paths := []routing.Path{{Src: 0, Dst: 1, Edges: []graph.EdgeID{0}}}
	pm, err := NewPathMatrix(paths, 3)
	if err != nil {
		t.Fatal(err)
	}
	incidence := [][]int{{0}, {0, 1}, {1, 2}, {2}}
	ni, err := pm.NodeIdentifiability([]int{0}, incidence)
	if err != nil {
		t.Fatal(err)
	}
	if ni.Covered[3] || ni.Identifiable[3] {
		t.Error("node 3 has no probed incident link but is covered")
	}
	if ni.NumCovered != 2 {
		t.Fatalf("NumCovered = %d, want 2 (nodes 0 and 1)", ni.NumCovered)
	}
}

func TestNodeIdentifiabilityValidation(t *testing.T) {
	pm, err := NewPathMatrix([]routing.Path{{Edges: []graph.EdgeID{0}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.NodeIdentifiability([]int{0}, nil); err == nil {
		t.Error("empty incidence accepted")
	}
	if _, err := pm.NodeIdentifiability([]int{5}, [][]int{{0}}); err == nil {
		t.Error("out-of-range path index accepted")
	}
	if _, err := pm.NodeIdentifiability([]int{0}, [][]int{{7}}); err == nil {
		t.Error("out-of-range incident link accepted")
	}
}

// bruteNodeIdent is the definition NodeIdentifiability implements, by
// enumeration: a node's hit set marks the selections whose path traverses
// one of its incident links; a node is covered when it hits any, and
// identifiable when no other covered node has the same hit set.
func bruteNodeIdent(paths []routing.Path, idx []int, incidence [][]int) NodeIdent {
	hits := make([][]bool, len(incidence))
	for v, links := range incidence {
		hits[v] = make([]bool, len(idx))
		for k, i := range idx {
			for _, e := range paths[i].Edges {
				hits[v][k] = hits[v][k] || slices.Contains(links, int(e))
			}
		}
	}
	ni := NodeIdent{Covered: make([]bool, len(incidence)), Identifiable: make([]bool, len(incidence))}
	for v := range hits {
		ni.Covered[v] = slices.Contains(hits[v], true)
	}
	for v := range hits {
		if !ni.Covered[v] {
			continue
		}
		ni.NumCovered++
		ni.Identifiable[v] = true
		for u := range hits {
			if u != v && ni.Covered[u] && slices.Equal(hits[u], hits[v]) {
				ni.Identifiable[v] = false
			}
		}
		if ni.Identifiable[v] {
			ni.NumIdentifiable++
		}
	}
	return ni
}

// NodeIdentifiability against brute force on small random instances: up
// to 8 nodes and 12 links, incidence lists drawn at random (a link may
// touch any number of nodes, or repeat in a list), paths that may repeat
// links, and selections that may repeat paths.
func TestNodeIdentifiabilityBruteForce(t *testing.T) {
	identified, confused := 0, 0
	for seed := uint64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1d))
		nodes, links := 1+rng.IntN(8), 1+rng.IntN(12)
		incidence := make([][]int, nodes)
		for v := range incidence {
			for l := 0; l < links; l++ {
				for rng.Float64() < 0.3 {
					incidence[v] = append(incidence[v], l)
				}
			}
		}
		paths := make([]routing.Path, 1+rng.IntN(10))
		for i := range paths {
			for l := 0; l < links; l++ {
				for rng.Float64() < 0.25 {
					paths[i].Edges = append(paths[i].Edges, graph.EdgeID(l))
				}
			}
		}
		idx := make([]int, rng.IntN(12))
		for k := range idx {
			idx[k] = rng.IntN(len(paths))
		}
		pm, err := NewPathMatrix(paths, links)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pm.NodeIdentifiability(idx, incidence)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteNodeIdent(paths, idx, incidence)
		if !slices.Equal(got.Covered, want.Covered) || !slices.Equal(got.Identifiable, want.Identifiable) ||
			got.NumCovered != want.NumCovered || got.NumIdentifiable != want.NumIdentifiable {
			t.Fatalf("seed %d: NodeIdentifiability %+v, brute force %+v", seed, got, want)
		}
		identified += want.NumIdentifiable
		confused += want.NumCovered - want.NumIdentifiable
	}
	if identified == 0 || confused == 0 {
		t.Fatalf("%d identified and %d confusable nodes: the instances do not exercise both outcomes", identified, confused)
	}
}
