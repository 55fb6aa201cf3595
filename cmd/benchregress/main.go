// Command benchregress runs a benchmark suite and records the results in a
// JSON file, so the performance trajectory of the optimized hot paths is
// tracked across PRs. The suites:
//
//   - selection (default): the Monte Carlo kernel benchmarks →
//     BENCH_selection.json
//   - bandit: the epoch-incremental LSR and trial-sharded experiment
//     benchmarks → BENCH_bandit.json
//   - obs: the observability hot paths (counter add, histogram observe,
//     nil-handle no-ops, /metrics render) → BENCH_obs.json; the *Nil
//     variants prove the unobserved cost is a single nil check
//   - agent: the measurement collection plane over real TCP →
//     BENCH_agent.json; one batched StreamNOC epoch over a 4×128 monitor
//     panel
//   - loss: the multicast loss-tomography MLE → BENCH_loss.json; the
//     incremental per-epoch update against its from-scratch batch *Fresh
//     baseline
//   - cluster: the sharded cluster plane → BENCH_cluster.json; the
//     forwarded submit path (route → peer frame → remote execute →
//     cache-fill) against its submit-at-owner *Serial baseline, plus the
//     ring lookup and peer codec microbenchmarks and the hedge-win rate
//     per forwarded op
//
// A benchmark with a baseline reference — a *Serial variant (one worker)
// or a *Fresh variant (from-scratch-per-epoch LSR) — is paired with it,
// and the derived speedup is recorded alongside ns/op, B/op,
// allocs/op, the allocation ratio for Fresh pairs, and — for benchmarks
// that report a "panel" or "frames" metric — the throughput in
// scenarios/second or path-frames/second.
//
// Usage:
//
//	go run ./cmd/benchregress [-suite selection|bandit|obs|agent|loss|cluster] [-out FILE] [-benchtime 5x]
//
// With -compare the command becomes a CI gate: instead of rewriting the
// JSON, it runs the suite, compares against the committed baseline
// (-baseline FILE, default the suite's own output file) and exits
// non-zero when any benchmark lost more than -max-regress (default 25%)
// of its baseline throughput or disappeared from the suite:
//
//	go run ./cmd/benchregress -suite selection -compare [-max-regress 0.25]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// suites maps each -suite name to its benchmark pattern, packages and
// default output file. A suite may override the default -benchtime: the
// algorithmic suites run a fixed 5 iterations of expensive benchmarks,
// while the obs suite measures sub-nanosecond operations that need a
// time-based budget to produce meaningful figures.
var suites = map[string]struct {
	out       string
	pattern   string
	packages  []string
	benchtime string
}{
	"selection": {
		out: "BENCH_selection.json",
		pattern: "^(BenchmarkMonteCarlo|BenchmarkMonteCarloSerial|" +
			"BenchmarkMonteCarloInc|BenchmarkMonteCarloIncSerial|" +
			"BenchmarkMonteCarloIncGF2|BenchmarkMonteCarloIncGF2Serial|" +
			"BenchmarkGF2Rank|BenchmarkGF2RankSerial|" +
			"BenchmarkMonteRoMe|BenchmarkMonteRoMeSerial)$",
		packages: []string{"./internal/er/", "./internal/selection/", "./internal/linalg/"},
	},
	"bandit": {
		out: "BENCH_bandit.json",
		pattern: "^(BenchmarkLSREpochSteady|BenchmarkLSREpochSteadyFresh|" +
			"BenchmarkFig8Quick|BenchmarkFig8QuickSerial|" +
			"BenchmarkFig5Quick|BenchmarkFig5QuickSerial)$",
		packages: []string{"./internal/bandit/", "./internal/experiments/"},
	},
	"obs": {
		out: "BENCH_obs.json",
		pattern: "^(BenchmarkCounterAdd|BenchmarkCounterAddNil|" +
			"BenchmarkGaugeSet|BenchmarkGaugeSetNil|" +
			"BenchmarkHistogramObserve|BenchmarkHistogramObserveNil|" +
			"BenchmarkCounterAddContended|BenchmarkPrometheusRender)$",
		packages:  []string{"./internal/obs/"},
		benchtime: "1s",
	},
	// The agent suite exercises real TCP round trips, so one op is an
	// entire epoch collection (milliseconds); a time-based budget keeps
	// the iteration counts meaningful without taking minutes.
	"agent": {
		out:       "BENCH_agent.json",
		pattern:   "^BenchmarkCollectFrames$",
		packages:  []string{"./internal/agent/"},
		benchtime: "1s",
	},
	// The loss suite tracks the incremental MINC epoch update against
	// its from-scratch batch baseline (the Fresh pair).
	"loss": {
		out:       "BENCH_loss.json",
		pattern:   "^(BenchmarkLossEpochUpdate|BenchmarkLossEpochUpdateFresh)$",
		packages:  []string{"./internal/loss/"},
		benchtime: "20x",
	},
	// The failure suite tracks scenario-panel throughput per registered
	// scenario source (the Monte Carlo oracle's refresh cost) and the
	// steady-state Gilbert–Elliott column sampler, whose allocs/op is a
	// zero-allocation contract.
	"failure": {
		out:       "BENCH_failure.json",
		pattern:   "^(BenchmarkScenarioPanelBernoulli|BenchmarkScenarioPanelGE|BenchmarkScenarioPanelSRLG|BenchmarkScenarioPanelNode|BenchmarkGEColumnSteady)$",
		packages:  []string{"./internal/failure/"},
		benchtime: "1s",
	},
	// The cluster suite pairs the forwarded submit path against its
	// submit-at-owner Serial baseline, so the Speedup column reads as the
	// forwarding overhead factor (expected < 1). One forwarded op stands
	// up real jobs on the in-process fabric, so a time budget keeps the
	// run bounded.
	"cluster": {
		out: "BENCH_cluster.json",
		pattern: "^(BenchmarkClusterSubmitForwarded|BenchmarkClusterSubmitForwardedSerial|" +
			"BenchmarkClusterRingOwner|BenchmarkClusterPeerCodec)$",
		packages:  []string{"./internal/cluster/"},
		benchtime: "1s",
	},
}

func main() {
	suiteName := flag.String("suite", "selection", "benchmark suite: selection, bandit, obs, agent, loss or cluster")
	out := flag.String("out", "", "output JSON path (default per suite)")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (default per suite)")
	pattern := flag.String("bench", "", "go test -bench regexp override (default per suite)")
	compare := flag.Bool("compare", false, "gate mode: compare against the committed baseline instead of rewriting it")
	baselinePath := flag.String("baseline", "", "baseline JSON for -compare (default: the suite's output file)")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed throughput loss fraction before -compare fails")
	flag.Parse()

	suite, ok := suites[*suiteName]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchregress: unknown suite %q (selection, bandit, obs, agent, loss, cluster)\n", *suiteName)
		os.Exit(1)
	}
	if *out == "" {
		*out = suite.out
	}
	if *pattern == "" {
		*pattern = suite.pattern
	}
	if *benchtime == "" {
		*benchtime = suite.benchtime
		if *benchtime == "" {
			*benchtime = "5x"
		}
	}

	args := append([]string{
		"test", "-run=^$", "-bench", *pattern, "-benchmem",
		"-benchtime", *benchtime,
	}, suite.packages...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: go %v: %v\n", args, err)
		os.Exit(1)
	}

	report := BuildReport(ParseBenchOutput(string(raw)))
	report.Date = time.Now().UTC().Format(time.RFC3339)
	report.BenchTime = *benchtime

	if *compare {
		if *baselinePath == "" {
			*baselinePath = suite.out
		}
		baseline, err := loadReport(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchregress: load baseline: %v\n", err)
			os.Exit(1)
		}
		regs := CompareReports(baseline, report, *maxRegress)
		if len(regs) == 0 {
			fmt.Printf("benchregress: %d benchmarks within %.0f%% of %s\n",
				len(report.Benchmarks), *maxRegress*100, *baselinePath)
			return
		}
		fmt.Fprintf(os.Stderr, "benchregress: %d regression(s) vs %s:\n", len(regs), *baselinePath)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchregress: wrote %d benchmarks, %d speedup pairs to %s\n",
		len(report.Benchmarks), len(report.Speedups), *out)
	for _, p := range report.Speedups {
		fmt.Printf("  %-28s %8.2fx vs %s  (%.2fms vs %.2fms)",
			p.Name, p.Speedup, p.Serial, p.NsPerOp/1e6, p.SerialNsPerOp/1e6)
		if p.AllocsRatio > 0 {
			fmt.Printf("  allocs %.0f vs %.0f (%.0fx)", p.AllocsPerOp, p.SerialAllocsPerOp, p.AllocsRatio)
		}
		fmt.Println()
	}
}
