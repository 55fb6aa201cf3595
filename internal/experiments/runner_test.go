package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1},
		{1, 1},
		{3, 3},
		{-1, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := effectiveWorkers(c.in); got != c.want {
			t.Errorf("effectiveWorkers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTrialStreamDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for base := uint64(0); base < 8; base++ {
		for trial := uint64(0); trial < 64; trial++ {
			s := trialStream(base, trial)
			key := fmt.Sprintf("base %d trial %d", base, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("stream collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestForTrialsCoversAllTrials(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 37
		hits := make([]atomic.Int64, n)
		if err := forTrials(workers, n, nil, func(trial int) error {
			hits[trial].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: trial %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForTrialsError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := forTrials(workers, 20, nil, func(trial int) error {
			if trial == 11 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

func TestForTrialsProgressMonotone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 25
		var last, calls int
		err := forTrials(workers, n, func(done, total int) {
			if total != n {
				t.Fatalf("total = %d, want %d", total, n)
			}
			if done != last+1 {
				t.Fatalf("progress jumped from %d to %d", last, done)
			}
			last = done
			calls++
		}, func(trial int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if calls != n || last != n {
			t.Fatalf("workers=%d: %d progress calls ending at %d, want %d", workers, calls, last, n)
		}
	}
}

// figureRuns is the table of figure drivers the determinism and golden
// tests share: each entry runs one driver on workload w at the given scale
// and renders its output as the text those tests compare and hash.
func figureRuns(w Workload) map[string]func(sc Scale) (string, error) {
	figure := func(fig Figure, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return fig.JSON()
	}
	return map[string]func(sc Scale) (string, error){
		"fig3": func(sc Scale) (string, error) {
			return figure(Fig3(Fig3Config{Workload: w, MaxFailures: 3, Trials: 10}, sc))
		},
		"fig4": func(sc Scale) (string, error) {
			return figure(Fig4(Fig4Config{Workload: w, MaxDependent: 3, ReferenceRuns: 200, SmallRuns: 20}, sc))
		},
		"fig5+7": func(sc Scale) (string, error) {
			res, err := BudgetSweep(BudgetSweepConfig{Workload: w, Multiplier: []float64{0.5, 1.0}, WithIdentifiability: true}, sc)
			if err != nil {
				return "", err
			}
			rank, err := res.Rank.JSON()
			if err != nil {
				return "", err
			}
			ident, err := res.Ident.JSON()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s\n%s\n%v", rank, ident, res.BasisCosts), nil
		},
		"fig6": func(sc Scale) (string, error) {
			return figure(RankCDF(RankCDFConfig{Workload: w, Multiplier: 0.75}, sc))
		},
		"fig8+9": func(sc Scale) (string, error) {
			res, err := MatroidLoss(MatroidLossConfig{Base: w, PathCounts: []int{24, 48}}, sc)
			if err != nil {
				return "", err
			}
			rank, err := res.RankLoss.JSON()
			if err != nil {
				return "", err
			}
			ident, err := res.IdentLoss.JSON()
			if err != nil {
				return "", err
			}
			return rank + "\n" + ident, nil
		},
		"fig10": func(sc Scale) (string, error) {
			return figure(Learning(LearningConfig{Workload: w, Multiplier: []float64{0.75}, Epochs: []int{30, 60}}, sc))
		},
		"tableI": func(sc Scale) (string, error) {
			rows, err := TableIWith(sc)
			if err != nil {
				return "", err
			}
			return FormatTableI(rows), nil
		},
		"intensity": func(sc Scale) (string, error) {
			return figure(IntensitySweep(w, sc, []float64{1, 2, 3}, 0.75))
		},
		"burstiness": func(sc Scale) (string, error) {
			return figure(Burstiness(BurstinessConfig{Workload: w, Multiplier: 0.75, MeanBursts: []float64{1, 8}}, sc))
		},
		"nodefail": func(sc Scale) (string, error) {
			return figure(NodeFailures(NodeFailConfig{Workload: w, Multiplier: 0.75, NodeEvents: []float64{0.5, 2}}, sc))
		},
		"correlated": func(sc Scale) (string, error) {
			return figure(Correlated(CorrelatedConfig{Workload: w, Multiplier: 0.75, GroupProb: 0.15, MaxGroup: 4}, sc))
		},
		"multipath": func(sc Scale) (string, error) {
			return figure(Multipath(MultipathConfig{Workload: w, Multiplier: 0.75, K: []int{1, 2}}, sc))
		},
		"closedloop": func(sc Scale) (string, error) {
			return figure(ClosedLoop(ClosedLoopConfig{Workload: w, Multiplier: 0.6, Horizon: 40, Windows: 4}, sc))
		},
		"learnerduel": func(sc Scale) (string, error) {
			return figure(LearnerDuel(LearnerDuelConfig{Workload: w, Multiplier: 0.5, Horizon: 60, Windows: 4}, sc))
		},
		"regret": func(sc Scale) (string, error) {
			curve, err := Regret(RegretConfig{Workload: w, Multiplier: 0.5, Horizon: 120, Checkpoints: 6}, sc)
			return fmt.Sprintf("%+v", curve), err
		},
		"lazyablation": func(sc Scale) (string, error) {
			res, err := LazyAblation(w, sc, 0.75)
			return fmt.Sprintf("%+v", res), err
		},
		"oraclequality": func(sc Scale) (string, error) {
			res, err := OracleQuality(w, sc, 0.75, 500)
			return fmt.Sprintf("%+v", res), err
		},
	}
}

// TestRunnersParallelMatchSerial is the harness's core guarantee: every
// figure driver produces byte-identical output at Workers 1 and 4 (and the
// serial inline path at Workers 0).
func TestRunnersParallelMatchSerial(t *testing.T) {
	for name, run := range figureRuns(testWorkload()) {
		t.Run(name, func(t *testing.T) {
			serial := testScale()
			serial.Workers = 1
			want, err := run(serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 4} {
				sc := testScale()
				sc.Workers = workers
				got, err := run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("Workers=%d output differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s", workers, want, workers, got)
				}
			}
		})
	}
}
