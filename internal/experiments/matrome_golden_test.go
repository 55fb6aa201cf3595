package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"robusttomo/internal/er"
	"robusttomo/internal/selection"
)

// Golden fingerprints pin MatRoMe's output at paper scale: the picks and
// the number of independence tests on every Fig. 5 workload and quick-scale
// monitor set, with EA weights and budget = rank(A) (the Fig. 8 matroid
// setting). A change to the rank kernel under MatRoMe that moves a single
// pick, or the scan that finds it, fails here.
func TestMatRoMeGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"AS1755/0": "faf8866d5fe2e7b8460a1ec47d76b16db987f9d6319c211dd99db766c5e077b4",
		"AS1755/1": "3ae7df6589fd6e0655daba5749089e6bb6dbc07ddc29e50b25046882323f0406",
		"AS3257/0": "6524fec2a56b4666701e288eb341292c00d1c4bb0f6836273a0715faf12ce391",
		"AS3257/1": "f8f7bac787933f832f34e56a2829f307242fb4cfce39ad7fc26faf45c225594e",
		"AS1239/0": "1fbc609ac47c56cb17ac516fc732744d61ad8f198149ecb4d6b427553182cc8a",
		"AS1239/1": "8198d3dccf54ad8f1ffe9f5c1aa989cab7ecc53a3cca7226a8fb1562828d0da2",
	}
	sc := QuickScale()
	for _, w := range PaperWorkloads() {
		for set := 0; set < sc.MonitorSets; set++ {
			in, err := BuildInstance(w, sc, set)
			if err != nil {
				t.Fatal(err)
			}
			res, err := selection.MatRoMe(in.PM, er.Availabilities(in.PM, in.Model), in.PM.Rank())
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "evals=%d picks=", res.GainEvaluations)
			for i, q := range res.Selected {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprint(&sb, q)
			}
			key := fmt.Sprintf("%s/%d", w.label(), set)
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
			if got != want[key] {
				t.Errorf("%s MatRoMe fingerprint = %s, want %s (%d picks, %d evaluations)",
					key, got, want[key], len(res.Selected), res.GainEvaluations)
			}
		}
	}
}
