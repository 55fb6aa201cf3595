package selection

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"robusttomo/internal/engine"
)

func selSpec() engine.Spec {
	return engine.Spec{
		Links:  4,
		Paths:  [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
		Probs:  []float64{0.1, 0.05, 0.2, 0.1},
		Budget: 3,
	}
}

func TestSelectionEngineRegistered(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatalf("selection engine not registered: %v", err)
	}
	if e.Name() != "selection" || e.ObsLabel() != "selection" {
		t.Fatalf("Name=%q ObsLabel=%q", e.Name(), e.ObsLabel())
	}
}

// TestSelectionNormalizeKey pins the canonical-key contract: the engine
// job's key is CanonicalInputs.Key over the normalized instance, with
// the v1 defaulting rules (probrome default, unit costs, zeroed MC knobs
// for deterministic algorithms).
func TestSelectionNormalizeKey(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	spec := selSpec()
	spec.MCRuns = 99 // must be zeroed: probrome ignores the MC knobs
	spec.Seed = 7
	j, err := e.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := CanonicalInputs{
		Links:     spec.Links,
		Paths:     spec.Paths,
		Probs:     spec.Probs,
		Costs:     []float64{1, 1, 1, 1},
		Budget:    spec.Budget,
		Algorithm: AlgProbRoMe,
		MCRuns:    0,
		Seed:      0,
	}.Key()
	if j.Key() != want {
		t.Fatalf("engine key %s, want canonical %s", j.Key(), want)
	}
	if j.Detail() != AlgProbRoMe {
		t.Fatalf("Detail = %q", j.Detail())
	}
	if j.CostHint() != 16 {
		t.Fatalf("CostHint = %g, want paths×links = 16", j.CostHint())
	}
}

func TestSelectionNormalizeRejectsParams(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	for name, params := range map[string]string{
		"unknown field":      `{"x":1}`,
		"no scenario":        `{}`,
		"null scenario":      `{"scenario":null}`,
		"unknown source":     `{"scenario":{"source":"no-such-process","links":4}}`,
		"foreign knob":       `{"scenario":{"source":"bernoulli","links":4,"mean_burst":3}}`,
		"links mismatch":     `{"scenario":{"source":"bernoulli","probs":[0.1,0.2]}}`,
		"probs len mismatch": `{"scenario":{"source":"bernoulli","probs":[0.1,0.2,0.3,0.4,0.5]}}`,
	} {
		spec := selSpec()
		if name == "probs len mismatch" {
			spec.Links = 0 // take links from the 5-link source; flat probs stay 4 long
		}
		spec.Params = []byte(params)
		if _, err := e.Normalize(spec); err == nil {
			t.Errorf("%s: Normalize accepted params %s", name, params)
		}
	}
}

// geParams is a scenario params payload over selSpec's four links with the
// same marginals as its flat probs.
const geParams = `{"scenario":{"source":"gilbert_elliott","probs":[0.1,0.05,0.2,0.1],"mean_burst":4,"seed":9}}`

// TestSelectionScenarioParams pins the scenario-source normalization
// rules: deterministic algorithms fold the source into its stationary
// marginals (same key as the explicit-probs job — shared cache entry),
// while monterome keeps the source and gets a domain-separated key.
func TestSelectionScenarioParams(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}

	// probrome + scenario: probs and links filled from the source, and the
	// key collapses to the plain flat-field key.
	spec := selSpec()
	spec.Links = 0
	spec.Probs = nil
	spec.Params = []byte(geParams)
	j, err := e.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Normalize(selSpec())
	if err != nil {
		t.Fatal(err)
	}
	if j.Key() != plain.Key() {
		t.Fatalf("probrome key split on scenario params: %s vs %s", j.Key(), plain.Key())
	}

	// monterome + scenario: key must differ from the marginal-equivalent
	// i.i.d. monterome job, and must be stable across Normalize calls.
	mc := selSpec()
	mc.Algorithm = AlgMonteRoMe
	mc.MCRuns = 64
	mc.Params = []byte(geParams)
	jmc, err := e.Normalize(mc)
	if err != nil {
		t.Fatal(err)
	}
	iid := selSpec()
	iid.Algorithm = AlgMonteRoMe
	iid.MCRuns = 64
	jiid, err := e.Normalize(iid)
	if err != nil {
		t.Fatal(err)
	}
	if jmc.Key() == jiid.Key() {
		t.Fatal("monterome scenario job collided with the i.i.d. job over the same marginals")
	}
	jmc2, err := e.Normalize(mc)
	if err != nil {
		t.Fatal(err)
	}
	if jmc.Key() != jmc2.Key() {
		t.Fatalf("monterome scenario key unstable: %s vs %s", jmc.Key(), jmc2.Key())
	}
}

// TestSelectionScenarioRunDeterministic: a monterome job over a
// Gilbert–Elliott source runs, selects paths, and repeats bit-identically
// (the source is rebuilt from the spec each Run, so state cannot leak).
func TestSelectionScenarioRunDeterministic(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	spec := selSpec()
	spec.Algorithm = AlgMonteRoMe
	spec.MCRuns = 64
	spec.Params = []byte(geParams)
	j, err := e.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := res.(Result)
	if !ok || len(sel.Selected) == 0 {
		t.Fatalf("implausible scenario-driven result %+v", res)
	}
	again, err := j.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("two scenario runs differ:\n%+v\n%+v", res, again)
	}
}

// TestSelectionEngineRunMatchesDirect: the engine's Run is the same
// computation as calling the algorithm directly.
func TestSelectionEngineRunMatchesDirect(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	j, err := e.Normalize(selSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := res.(Result)
	if !ok {
		t.Fatalf("Run returned %T, want selection.Result", res)
	}
	if len(sel.Selected) == 0 {
		t.Fatalf("implausible result %+v", sel)
	}
	again, err := j.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("two runs differ:\n%+v\n%+v", res, again)
	}
}

func TestSelectionResultClone(t *testing.T) {
	r := Result{Selected: []int{1, 2, 3}, Objective: 2.5}
	if r.SizeBytes() != 8*3+128 {
		t.Fatalf("SizeBytes = %d, want %d", r.SizeBytes(), 8*3+128)
	}
	c := r.Clone().(Result)
	c.Selected[0] = -1
	if r.Selected[0] == -1 {
		t.Fatal("mutating the clone reached the original")
	}
}

// TestSelectionScenarioLinksBounded: the 74-byte params naming 20 million
// links fail on the limit before the source allocates per-link state
// (800 MB and seconds of work without it), and a source at the limit
// gets past it.
func TestSelectionScenarioLinksBounded(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"scenario":{"source":"bernoulli","links":20000000,"expected_failures":2}}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = e.Normalize(engine.Spec{Params: []byte(body)})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "more than 65536") {
		t.Fatalf("Normalize = %v, want the %d-link limit", err, MaxLinks)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the body allocated %d bytes", grew)
	}
	for _, params := range []string{
		`{"scenario":{"source":"bernoulli","links":65537,"expected_failures":2}}`,
		`{"scenario":{"source":"bernoulli","probs":[` + strings.Repeat("0.1,", MaxLinks) + `0.1]}}`,
	} {
		if _, err := e.Normalize(engine.Spec{Params: []byte(params)}); err == nil || !strings.Contains(err.Error(), "more than") {
			t.Fatalf("Normalize of %.60s... = %v, want the link limit", params, err)
		}
	}
	atLimit := `{"scenario":{"source":"bernoulli","links":65536,"expected_failures":2}}`
	if _, err := e.Normalize(engine.Spec{Params: []byte(atLimit)}); err == nil || strings.Contains(err.Error(), "more than") {
		t.Fatalf("Normalize at the limit = %v, want it past the limit (failing on paths)", err)
	}
}

// onePathSpecs returns n one-link paths over links 0..3.
func onePathSpecs(n int) [][]int {
	paths := make([][]int, n)
	for i := range paths {
		paths[i] = []int{i % 4}
	}
	return paths
}

// TestSelectionSizeProductsBounded: a 40 KB body, a 65,536-link scenario
// source plus 10,000 one-link paths, would ask Run for a 5.2 GB path
// matrix; Normalize refuses it on MaxPathCells before building the source.
// Jobs exactly at MaxPathCells and at MaxPathRuns pass, and one path more
// fails, as do explicit link counts too large to multiply.
func TestSelectionSizeProductsBounded(t *testing.T) {
	e, err := engine.Lookup(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	scenario := []byte(`{"scenario":{"source":"bernoulli","links":65536,"expected_failures":2}}`)
	cells, runs := strconv.Itoa(MaxPathCells), strconv.Itoa(MaxPathRuns)

	big := engine.Spec{Params: scenario, Paths: onePathSpecs(10000)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = e.Normalize(big)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), cells) {
		t.Fatalf("Normalize = %v, want the %s-cell limit", err, cells)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the body allocated %d bytes", grew)
	}

	probs := []float64{0.1, 0.1, 0.1, 0.1}
	for _, tc := range []struct {
		name  string
		spec  engine.Spec
		limit string // "" when the spec must pass
	}{
		{"cells at limit", engine.Spec{Params: scenario, Paths: onePathSpecs(MaxPathCells / MaxLinks)}, ""},
		{"cells over limit", engine.Spec{Params: scenario, Paths: onePathSpecs(MaxPathCells/MaxLinks + 1)}, cells},
		{"explicit links over limit", engine.Spec{Links: 1 << 20, Paths: onePathSpecs(9)}, cells},
		{"links too large to multiply", engine.Spec{Links: math.MaxInt, Paths: onePathSpecs(2)}, cells},
		{"runs at limit", engine.Spec{Links: 4, Probs: probs, Paths: onePathSpecs(MaxPathRuns / MaxMCRuns),
			Algorithm: AlgMonteRoMe, MCRuns: MaxMCRuns}, ""},
		{"runs over limit", engine.Spec{Links: 4, Probs: probs, Paths: onePathSpecs(MaxPathRuns/MaxMCRuns + 1),
			Algorithm: AlgMonteRoMe, MCRuns: MaxMCRuns}, runs},
		{"default runs over limit", engine.Spec{Links: 4, Probs: probs, Paths: onePathSpecs(MaxPathRuns/DefaultMCRuns + 1),
			Algorithm: AlgMonteRoMe}, runs},
	} {
		_, err := e.Normalize(tc.spec)
		if tc.limit == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.limit != "" && (err == nil || !strings.Contains(err.Error(), tc.limit)) {
			t.Errorf("%s: Normalize = %v, want the %s limit", tc.name, err, tc.limit)
		}
	}
}
