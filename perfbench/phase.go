package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minOps is the fewest completed ops a measured phase needs: the p90 must
// have minTail samples beyond it.
const minOps = 100

// errAbort marks an op error that ends the run (a daemon died); every
// other op error only counts the op as failed.
var errAbort = errors.New("run aborted")

// opResult is what one op reports to the phase loop.
type opResult struct {
	class string
	lat   time.Duration
	// aside is time the op spent on checks after its latency was taken;
	// the phase leaves it out of the measured wall time.
	aside time.Duration
}

// phase is one measured phase: a single client in a closed loop, issuing
// the next op only when the previous one has completed.
type phase struct {
	lat       []float64            // ms, per completed op
	byClass   map[string][]float64 // ms, per completed op of each class
	classes   map[string]int       // attempted ops per class
	attempted int
	failed    int
	wall      time.Duration // measured time, checks excluded
	// mem is read once minOps ops have completed. A reading at a fixed op
	// count does not move with throughput: a daemon keeps a record of
	// every job it has run.
	mem mem
}

// runPhase runs op(0), op(1), ... back to back for d. If fewer than
// minOps ops completed by then, it keeps going until they have (at most
// 3d) and says so, rather than report a p90 that rests on too few ops.
// readMem, when not nil, is called between ops once minOps ops have
// completed; its time is left out of the measured wall time.
func runPhase(ctx context.Context, d time.Duration, maxOps int, op func(i int) (opResult, error), readMem func() (mem, error)) (*phase, error) {
	ph := &phase{classes: map[string]int{}, byClass: map[string][]float64{}}
	start := time.Now()
	var aside time.Duration
	for i := 0; ; i++ {
		if readMem != nil && len(ph.lat) == minOps {
			t0 := time.Now()
			m, err := readMem()
			if err != nil {
				return nil, err
			}
			ph.mem, readMem = m, nil
			aside += time.Since(t0)
		}
		elapsed := time.Since(start) - aside
		if elapsed >= d && (len(ph.lat) >= minOps || elapsed >= 3*d) {
			break
		}
		if i >= maxOps {
			return nil, fmt.Errorf("op stream of %d ops ran out after %v; raise its cap", maxOps, elapsed.Round(time.Millisecond))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := op(i)
		aside += res.aside
		ph.attempted++
		ph.classes[res.class]++
		if err != nil {
			if errors.Is(err, errAbort) {
				return nil, err
			}
			ph.failed++
			if ph.failed <= 5 {
				fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
			}
			continue
		}
		ms := float64(res.lat) / 1e6
		ph.lat = append(ph.lat, ms)
		ph.byClass[res.class] = append(ph.byClass[res.class], ms)
	}
	ph.wall = time.Since(start) - aside
	return ph, nil
}

// shares returns each class's share of the attempted ops.
func (ph *phase) shares() map[string]float64 {
	out := make(map[string]float64, len(ph.classes))
	for c, n := range ph.classes {
		out[c] = float64(n) / float64(ph.attempted)
	}
	return out
}

// endToEnd sets the end-to-end metrics from a measured phase and the
// set-up repeats (seconds each).
//
// mem_mb is the live heap after forced collections, read at a fixed op
// count (see phase.mem). Sys, the memory obtained from the OS, is a
// high-water mark that grows in 4 MB heap chunks at moments set by GC
// pacing: it moved 10-12% between runs of the same code, so it is only
// noted.
func (r *report) endToEnd(ph *phase, setups []float64) error {
	p50, err := percentile(ph.lat, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(ph.lat, 0.9)
	if err != nil {
		return err
	}
	r.Attempted = ph.attempted
	r.Failed = ph.failed
	if ph.failed > 0 {
		r.fail("%d of %d ops failed", ph.failed, ph.attempted)
	}
	r.set("latency_p50_ms", "ms", p50)
	r.set("latency_p90_ms", "ms", p90)
	r.set("throughput_per_s", "1/s", float64(len(ph.lat))/ph.wall.Seconds())
	r.set("setup_s", "s", median(setups))
	r.set("mem_mb", "MB", float64(ph.mem.live)/1e6)
	r.notef("%d ops in %v (closed loop, one client); set-up repeats %v s; Sys %.2f MB", len(ph.lat), ph.wall.Round(time.Millisecond), roundAll(setups, 4), float64(ph.mem.sys)/1e6)
	r.notef("class shares %s; class p50 ms %s", formatShares(ph.shares()), formatShares(ph.classMedians()))
	return nil
}

// classMedians returns each class's median latency in ms.
func (ph *phase) classMedians() map[string]float64 {
	out := make(map[string]float64, len(ph.byClass))
	for c, lat := range ph.byClass {
		out[c] = median(lat)
	}
	return out
}

// traceCounts sets the op counts of a traced run, which measures an
// untraced and a traced phase.
func (r *report) traceCounts(untraced, traced *phase) {
	r.Attempted = untraced.attempted + traced.attempted
	r.Failed = untraced.failed + traced.failed
	if r.Failed > 0 {
		r.fail("%d of %d ops failed", r.Failed, r.Attempted)
	}
}

// checkMargin fails the run when a percentile would sit within
// minClassMargin of a boundary between the phase's op classes.
func (r *report) checkMargin(ph *phase) {
	shares := ph.shares()
	vals := make([]float64, 0, len(shares))
	for _, s := range shares {
		vals = append(vals, s)
	}
	if m := boundaryMargin(vals, []float64{0.5, 0.9}); m < minClassMargin {
		r.fail("a percentile sits %.3f from a class boundary (shares %s)", m, formatShares(shares))
	}
}

// procUsage is a process's CPU time and Go allocation counters.
type procUsage struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
}

// selfUsage reads this process's CPU time (rusage) and memory counters.
func selfUsage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

// mem is a memory reading taken right after two forced collections: the
// first moves sync.Pool contents to the victim cache, the second frees
// them, so the live heap is what the program retains.
type mem struct {
	live uint64 // bytes of live heap (HeapAlloc)
	sys  uint64 // bytes obtained from the OS (Sys)
}

// selfMem forces the collections in this process and reads its memory.
func selfMem() mem {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mem{live: ms.HeapAlloc, sys: ms.Sys}
}

// setRuntime sets the runtime.* per-op layer metrics from usage readings
// taken around a phase of n ops.
func (r *report) setRuntime(before, after procUsage, n int) {
	ops := float64(n)
	r.set("runtime.cpu_ms_per_op", "ms", float64(after.cpu-before.cpu)/1e6/ops)
	r.set("runtime.alloc_kb_per_op", "KB", float64(after.totalAlloc-before.totalAlloc)/1024/ops)
	r.set("runtime.gc_per_op", "count", float64(after.numGC-before.numGC)/ops)
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*g", digits, x)
	}
	return out
}

func formatShares(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for c := range shares {
		names = append(names, c)
	}
	sort.Strings(names)
	s := ""
	for i, c := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.3f", c, shares[c])
	}
	return s
}
