package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Golden fingerprints pin every figure driver's output: the SHA-256 of the
// text figureRuns renders for each driver, run serially at testScale() on
// the mini workload. A change to an oracle, the greedy loop, a scenario
// source or a driver that moves a single figure value fails here.
func TestFigureGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"burstiness":    "f7b9497633469a5c357fec871577d63b15596d59fb5fdeee9bbb96f943c76c31",
		"closedloop":    "138aeaa439010d28e50339b8fce9744b7a48066630cfc8041d92bd580022b712",
		"correlated":    "8e309f5dfa5a94777af2a341a65e73a5d0b72e4da407b9775547df99970f6744",
		"fig10":         "3a66044e42447b928c4cdce7531169dc1ae7220e311923fe5e8aa1fee8c5c3f2",
		"fig3":          "cf56e4e8cf0e47d86f3bcce80696fe210ac36fe507ee218c4eb5dc216c17c98a",
		"fig4":          "38d8585929392d2f6bccd0d196132d65718e8e5a652d75920ac4e08e509a6879",
		"fig5+7":        "fe5b355c589c109f02996be913ef8cab64deb08c75d2538a9d1929c634b516c3",
		"fig6":          "07ba3f9ee0e28177ec580f9f8c198399dee3643e8af25842efd3460cbec265ba",
		"fig8+9":        "6cf6efd9b6f41359b07cd1055488553323e89a707dc04148deca5a6cbe8d6e12",
		"intensity":     "c1c48df22c4a08f0e1132b2486f3ab0e77cd60c6a232d9cb699dde04683b7c73",
		"lazyablation":  "6ec119ef6ba623633a658358ed1e6b9858bc37695dba83636728a7f2c87ca9f3",
		"learnerduel":   "88f649d49d6ec47ebbbccee937e47dad443384deb8b2cd1845187b18aa0ded19",
		"multipath":     "1220c6a76c99270a9ce6a8631aaf099d944a8fb6cf98374f05d6aa19c363db61",
		"nodefail":      "7c2eeb0a334b8cde37bc21fc2ecc6fd5b04990efe06ec2c97a53e57349a086e2",
		"oraclequality": "570ee7243b22d9f2d75486150b1b2bb06dba1357b3ba001cdaf0b98b1e42fb04",
		"regret":        "f0c509fd7f5b848239fa6830d50fc88288faf18169c31bcb0d0c0f8a003ffe28",
		"tableI":        "e85e114dccbb85986aa1408f8d1921fd51e752e5528049007a5e0b6bfaed305c",
	}
	runs := figureRuns(testWorkload())
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			sc := testScale()
			sc.Workers = 1
			out, err := run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want[name] {
				t.Errorf("%s fingerprint = %s, want %s", name, got, want[name])
			}
		})
	}
	if len(want) != len(runs) {
		t.Errorf("%d fingerprints for %d drivers", len(want), len(runs))
	}
}
