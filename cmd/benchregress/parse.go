package main

import (
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Panel is the scenario-panel size the benchmark reports via the
	// "panel" metric; zero when the benchmark doesn't report one.
	Panel float64 `json:"panel,omitempty"`
	// ScenariosPerSecond is Panel / (NsPerOp in seconds): how many
	// scenario evaluations per second one op sustains.
	ScenariosPerSecond float64 `json:"scenarios_per_second,omitempty"`
	// Frames is the per-op path-frame count the collection-plane
	// benchmark reports via the "frames" metric, one per path collected,
	// so frames/sec stays comparable with the history in BENCH_agent.json;
	// zero when the benchmark doesn't report one.
	Frames float64 `json:"frames,omitempty"`
	// FramesPerSecond is Frames / (NsPerOp in seconds): the sustained
	// path-frame throughput of one collection epoch.
	FramesPerSecond float64 `json:"frames_per_second,omitempty"`
	// HedgeWins is the hedge-win rate per forwarded op the cluster
	// benchmarks report via the "hedgewins" metric — near zero on a
	// healthy fabric, so a climb flags an accidental always-hedge.
	HedgeWins float64 `json:"hedge_wins,omitempty"`
}

// Pair relates a benchmark to its baseline reference — a *Serial variant
// (parallelism speedup) or a *Fresh variant (epoch-incremental speedup).
// The JSON field names keep the original "serial" spelling for continuity
// of the recorded trajectory.
type Pair struct {
	Name          string  `json:"name"`
	Serial        string  `json:"serial"`
	NsPerOp       float64 `json:"ns_per_op"`
	SerialNsPerOp float64 `json:"serial_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	// AllocsRatio is baseline allocs/op over optimized allocs/op, recorded
	// when both sides report allocations (the Fresh pairs' headline metric).
	AllocsPerOp       float64 `json:"allocs_per_op,omitempty"`
	SerialAllocsPerOp float64 `json:"serial_allocs_per_op,omitempty"`
	AllocsRatio       float64 `json:"allocs_ratio,omitempty"`
}

// Report is the BENCH_selection.json schema.
type Report struct {
	Date       string  `json:"date"`
	BenchTime  string  `json:"benchtime"`
	Benchmarks []Entry `json:"benchmarks"`
	Speedups   []Pair  `json:"speedups"`
}

// ParseBenchOutput extracts benchmark result lines from `go test -bench`
// output. It understands the standard column layout
//
//	BenchmarkName-8   5   1234 ns/op   99 B/op   7 allocs/op   1000 panel
//
// where the value/unit metric pairs appear in any order, and tracks "pkg:"
// headers so entries carry their package.
func ParseBenchOutput(out string) []Entry {
	var entries []Entry
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "pkg:" {
			pkg = fields[1]
			continue
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		e := Entry{Name: trimProcSuffix(fields[0]), Package: pkg, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			case "panel":
				e.Panel = v
			case "frames":
				e.Frames = v
			case "hedgewins":
				e.HedgeWins = v
			}
		}
		if e.Panel > 0 && e.NsPerOp > 0 {
			e.ScenariosPerSecond = e.Panel / (e.NsPerOp / 1e9)
		}
		if e.Frames > 0 && e.NsPerOp > 0 {
			e.FramesPerSecond = e.Frames / (e.NsPerOp / 1e9)
		}
		entries = append(entries, e)
	}
	return entries
}

// trimProcSuffix strips the -<GOMAXPROCS> suffix go test appends to
// benchmark names when running with more than one proc.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// baselineSuffixes are the recognized baseline-variant suffixes: Serial
// marks a one-worker reference, Fresh a from-scratch-per-epoch reference.
var baselineSuffixes = []string{"Serial", "Fresh"}

// BuildReport pairs every benchmark with its <Name>Serial and <Name>Fresh
// counterparts and derives the speedups (and, when reported, the
// allocation ratios).
func BuildReport(entries []Entry) Report {
	r := Report{Benchmarks: entries}
	byName := make(map[string]Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	for _, e := range entries {
		if isBaseline(e.Name) {
			continue
		}
		for _, suffix := range baselineSuffixes {
			s, ok := byName[e.Name+suffix]
			if !ok || e.NsPerOp <= 0 {
				continue
			}
			p := Pair{
				Name:          e.Name,
				Serial:        s.Name,
				NsPerOp:       e.NsPerOp,
				SerialNsPerOp: s.NsPerOp,
				Speedup:       s.NsPerOp / e.NsPerOp,
			}
			if e.AllocsPerOp > 0 && s.AllocsPerOp > 0 {
				p.AllocsPerOp = e.AllocsPerOp
				p.SerialAllocsPerOp = s.AllocsPerOp
				p.AllocsRatio = s.AllocsPerOp / e.AllocsPerOp
			}
			r.Speedups = append(r.Speedups, p)
		}
	}
	return r
}

func isBaseline(name string) bool {
	for _, suffix := range baselineSuffixes {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}
