package service

import (
	"reflect"
	"testing"

	"robusttomo/internal/selection"
)

// TestLegacyAlgorithmKeysBitIdentical pins the v1 wire contract: a
// submission that names only `algorithm` (or nothing at all) routes to
// the selection engine and gets the exact canonical key the pre-registry
// service computed — selection.CanonicalInputs.Key over the normalized
// instance — and a v2 submission with `engine` set lands on the same
// key, so caches and recorded job IDs survive the API redesign.
func TestLegacyAlgorithmKeysBitIdentical(t *testing.T) {
	base := testSpec(0)
	for _, tc := range []struct {
		alg    string
		mcRuns int
		seed   uint64
	}{
		{alg: ""}, // empty algorithm defaults to probrome
		{alg: AlgProbRoMe},
		{alg: AlgMonteRoMe, mcRuns: 64, seed: 7},
		{alg: AlgMonteRoMe}, // mc_runs defaults to DefaultMCRuns
		{alg: AlgMatRoMe},
		{alg: AlgSelectPath},
	} {
		name := tc.alg
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			spec := base
			spec.Algorithm = tc.alg
			spec.MCRuns = tc.mcRuns
			spec.Seed = tc.seed

			// Hand-compute the v1-era key: the normalization rules the old
			// service applied before hashing.
			alg := tc.alg
			if alg == "" {
				alg = AlgProbRoMe
			}
			mcRuns, seed := tc.mcRuns, tc.seed
			if alg == AlgMonteRoMe {
				if mcRuns == 0 {
					mcRuns = DefaultMCRuns
				}
			} else {
				mcRuns, seed = 0, 0
			}
			unit := make([]float64, len(spec.Paths))
			for i := range unit {
				unit[i] = 1
			}
			costs := spec.Costs
			if len(costs) == 0 {
				costs = unit
			}
			want := selection.CanonicalInputs{
				Links:     spec.Links,
				Paths:     spec.Paths,
				Probs:     spec.Probs,
				Costs:     costs,
				Budget:    spec.Budget,
				Algorithm: alg,
				MCRuns:    mcRuns,
				Seed:      seed,
			}.Key()

			s := New(Config{Workers: 1, QueueDepth: 8})
			defer closeNow(t, s)
			out, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if out.ID != want {
				t.Fatalf("legacy submission key = %s, want %s", out.ID, want)
			}

			// v2 shape: engine named explicitly, same instance.
			v2 := spec
			v2.Engine = selection.EngineName
			out2, err := s.Submit(v2)
			if err != nil {
				t.Fatal(err)
			}
			if out2.ID != out.ID {
				t.Fatalf("v2 submission key %s differs from legacy %s", out2.ID, out.ID)
			}

			if st := waitDone(t, s, out.ID); st.State != StateDone {
				t.Fatalf("job state %s, err %q", st.State, st.Error)
			}
			if st, err := s.Status(out.ID); err != nil || st.Engine != selection.EngineName || st.Algorithm != alg {
				t.Fatalf("status engine=%q algorithm=%q err=%v, want engine=selection algorithm=%s",
					st.Engine, st.Algorithm, err, alg)
			}
		})
	}
}

// TestLegacyCachedResultsMatchDirectRun asserts the service's answer for
// a legacy submission — including a cache hit — equals running the
// selection engine's job directly: the re-homing changed where the code
// lives, not what it computes.
func TestLegacyCachedResultsMatchDirectRun(t *testing.T) {
	for _, alg := range []string{AlgProbRoMe, AlgMonteRoMe, AlgMatRoMe, AlgSelectPath} {
		t.Run(alg, func(t *testing.T) {
			spec := testSpec(0)
			spec.Algorithm = alg
			spec.MCRuns = 32
			spec.Seed = 2014

			r, err := spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := r.ej.Run(t.Context(), nil)
			if err != nil {
				t.Fatal(err)
			}

			s := New(Config{Workers: 1, QueueDepth: 8})
			defer closeNow(t, s)
			out, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, s, out.ID)
			got := selResult(t, s, out.ID)
			if !reflect.DeepEqual(got, direct.(selection.Result)) {
				t.Fatalf("service result differs from direct engine run:\n%+v\n%+v", got, direct)
			}

			again, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Cached {
				t.Fatalf("resubmission not cached: %+v", again)
			}
			cached := selResult(t, s, again.ID)
			if !reflect.DeepEqual(cached, direct.(selection.Result)) {
				t.Fatalf("cached result differs from direct engine run:\n%+v\n%+v", cached, direct)
			}
		})
	}
}
