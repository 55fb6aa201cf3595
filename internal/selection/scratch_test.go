package selection

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"robusttomo/internal/er"
)

// Property: a Scratch reused across many RoMe runs (and across lazy/naive
// modes and different instances' theta vectors) never changes the result —
// selection order, objective and evaluation counts are bit-identical to
// scratch-free runs.
func TestRoMeScratchIdentical(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		pm, _ := randomInstance(rng, 8, 12)
		n := pm.NumPaths()
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(3))
		}
		scratch := &Scratch{}
		for round := 0; round < 4; round++ {
			theta := make([]float64, n)
			for i := range theta {
				theta[i] = rng.Float64()
			}
			for _, lazy := range []bool{true, false} {
				opts := Options{Lazy: lazy}
				plain, err := RoMe(pm, costs, 6, er.NewThetaBoundInc(pm, theta), opts)
				if err != nil {
					return false
				}
				opts.Scratch = scratch
				reused, err := RoMe(pm, costs, 6, er.NewThetaBoundInc(pm, theta), opts)
				if err != nil {
					return false
				}
				if plain.Objective != reused.Objective ||
					plain.GainEvaluations != reused.GainEvaluations ||
					len(plain.Selected) != len(reused.Selected) {
					return false
				}
				for i := range plain.Selected {
					if plain.Selected[i] != reused.Selected[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The InitialGainer fast path (ThetaBoundInc implements it) must leave the
// greedy's behavior indistinguishable from an oracle without it: wrapping
// the same oracle so the interface assertion fails yields the identical
// result, including GainEvaluations.
func TestRoMeInitialGainerTransparent(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 78))
		pm, _ := randomInstance(rng, 8, 12)
		n := pm.NumPaths()
		costs := make([]float64, n)
		theta := make([]float64, n)
		for i := range costs {
			costs[i] = 1 + float64(rng.IntN(3))
			theta[i] = rng.Float64()
		}
		fast, err := RoMe(pm, costs, 6, er.NewThetaBoundInc(pm, theta), Options{Lazy: true})
		if err != nil {
			return false
		}
		slow, err := RoMe(pm, costs, 6, hideInitial{er.NewThetaBoundInc(pm, theta)}, Options{Lazy: true})
		if err != nil {
			return false
		}
		if fast.Objective != slow.Objective || fast.GainEvaluations != slow.GainEvaluations {
			return false
		}
		if len(fast.Selected) != len(slow.Selected) {
			return false
		}
		for i := range fast.Selected {
			if fast.Selected[i] != slow.Selected[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// hideInitial strips the InitialGainer extension from an oracle, forcing
// RoMe onto the per-path Gain sweep.
type hideInitial struct{ inner er.Incremental }

func (h hideInitial) Gain(path int) float64 { return h.inner.Gain(path) }
func (h hideInitial) Add(path int)          { h.inner.Add(path) }
func (h hideInitial) Value() float64        { return h.inner.Value() }
