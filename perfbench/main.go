// Command perfbench is the repository's end-to-end benchmark. It drives
// the real `tomo serve` daemon over loopback HTTP (as one node and as a
// three-node ring), the streaming collection plane over loopback TCP, and
// the figure runners in-process; checks every output against an
// in-process reference; and prints one JSON result line last.
//
// run.sh builds this command and the daemon from the checkout it sits
// in, then runs it:
//
//	bash perfbench/run.sh --workload ring-mixed --seed 7 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run measures untraced, then traced, replays ops through
// each layer's public functions under spans, and reports the per-layer
// breakdown instead.
//
// Every workload is one closed-loop client against one system: callers of
// the job API wait for a selection before they plan the next probe round,
// and on two cores a second client splits throughput into two clusters.
// Each workload is the only one that loads some layer:
//
//   - monterome-as1755: one daemon; every op is a cold MonteRoMe job on
//     AS1755 (400 candidate paths, 1000-scenario panel, a fresh panel seed
//     per op). Loads failure, er and selection; the API and service take
//     1-2%; bypasses cluster, loss and agent. Ops: 100% cold, 100% local.
//   - ring-mixed: three daemons in a ring. Cold ProbRoMe jobs on AS3257
//     (1600 paths, a 46 KB body) and cold MINC loss jobs on a depth-6
//     tree, each sent to a non-owner so it forwards once, plus repeats of
//     recent jobs at the owner (a cache read) or at the third node (a
//     forward answered from the owner's cache, then a fill). Loads the
//     API codec, engine normalize/key, the service cache and the cluster
//     forward/fill path; selection is a small share. Ops: 37.5% ProbRoMe,
//     37.5% loss, 25% repeat; 87.5% forwarded, 12.5% local.
//   - collect-epoch: in-process monitors and one StreamNOC over loopback
//     TCP with binary frames; each op collects one epoch of the 1600
//     AS3257 paths spread over 16 monitors. Loads only the agent plane.
//     Ops: 100% epochs.
//   - figures: each op regenerates one of Fig. 5 (budget sweep), Fig. 10
//     (LSR learning) and the closed-loop extension in-process, in
//     rotation, with Workers = the CPU count. Loads the experiments
//     trial sharding, bandit and sim; bypasses the API, service and
//     agent. Ops: a third each.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tomo     string // the daemon binary
	traceDir string // where a traced run writes its spans
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*report, error){
	"monterome-as1755": runMonteRoMe,
	"ring-mixed":       runRing,
	"collect-epoch":    runCollect,
	"figures":          runFigures,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: report the per-layer breakdown instead of the end-to-end metrics")
	tomo := fs.String("tomo", "", "path to the tomo binary (run.sh builds it)")
	traceDir := fs.String("trace-dir", "", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := fn(ctx, config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		tomo:     *tomo,
		traceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.print(stdout, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed before the result line.
	notes []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

func (r *report) print(w io.Writer, workload string) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s: %s\n", workload, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: ops=%d ops_failed=%d", workload, r.Attempted, r.Failed)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(&sb, " %s=%.4g %s", name, m.Value, m.Unit)
	}
	fmt.Fprintln(w, sb.String())
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
