package selection

import (
	"slices"
	"testing"

	"robusttomo/internal/er"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
)

// messyPaths lists every path's links in reverse and, when repeat is set,
// names three of them a second time.
func messyPaths(pm *tomo.PathMatrix, repeat bool) []routing.Path {
	out := make([]routing.Path, pm.NumPaths())
	for i := range out {
		p := pm.Path(i)
		edges := slices.Clone(p.Edges)
		slices.Reverse(edges)
		if repeat {
			edges = append(edges, p.Edges[0], p.Edges[len(p.Edges)/2], p.Edges[0])
		}
		out[i] = routing.Path{Src: p.Src, Dst: p.Dst, Edges: edges}
	}
	return out
}

// A job spec may list a path's links out of order or more than once. The
// path matrix's rows collapse that, so ProbRoMe must pick what it picks on
// the clean paths; the cache key still hashes the links as given, so job
// IDs of such specs do not move.
func TestProbRoMeUnsortedRepeatedLinks(t *testing.T) {
	clean, model, costs := rocketfuelSelection(t, 100, 2)
	want, err := RoMe(clean, costs, 30, er.NewProbBoundInc(clean, model), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	cleanKey := CanonicalKey(clean, model.Probs(), costs, 30, "probrome", 0, 0)
	for _, repeat := range []bool{false, true} {
		paths := messyPaths(clean, repeat)
		pm, err := tomo.NewPathMatrix(paths, clean.NumLinks())
		if err != nil {
			t.Fatal(err)
		}
		got, err := RoMe(pm, costs, 30, er.NewProbBoundInc(pm, model), NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Selected, want.Selected) {
			t.Fatalf("repeat=%v: ProbRoMe picked %v, clean paths %v", repeat, got.Selected, want.Selected)
		}

		given := CanonicalInputs{Links: clean.NumLinks(), Probs: model.Probs(), Costs: costs, Budget: 30, Algorithm: "probrome"}
		for _, p := range paths {
			links := make([]int, len(p.Edges))
			for k, e := range p.Edges {
				links[k] = int(e)
			}
			given.Paths = append(given.Paths, links)
		}
		key := CanonicalKey(pm, model.Probs(), costs, 30, "probrome", 0, 0)
		if key != given.Key() || key == cleanKey {
			t.Fatalf("repeat=%v: key %s, want the hash of the links as given %s (clean %s)", repeat, key, given.Key(), cleanKey)
		}
	}
}
