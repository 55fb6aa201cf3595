package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so an untraced run pays one nil check per call site. It is not
// safe for concurrent use: the benchmark makes its layer calls from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfMS returns each span's self time in ms: its duration minus the part
// of it that its child spans cover. Indexed by span ID - 1.
func (t *tracer) selfMS() []float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(t.spans))
	for i, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// perOp sums the self time of spans named name per op, over the ops that
// have at least one such span.
func (t *tracer) perOp(self []float64, name string) map[int]float64 {
	sums := map[int]float64{}
	for i, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += self[i]
		}
	}
	return sums
}

// setLayer sets metric to the median over ops of the per-op self time of
// spans named span, when any op has one.
func (r *report) setLayer(t *tracer, self []float64, metric, span string) {
	if sums := t.perOp(self, span); len(sums) > 0 {
		r.set(metric, "ms", median(values(sums)))
	}
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// record adds a span whose times were taken elsewhere.
func (t *tracer) record(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// unaccounted returns, per op with a root span named root and at least
// one span named in layers, the root's duration minus the self time of
// the op's layer spans: the part of what the client waited for that no
// layer span explains.
func (t *tracer) unaccounted(self []float64, root string, layers []string) []float64 {
	isLayer := map[string]bool{}
	for _, l := range layers {
		isLayer[l] = true
	}
	total := map[int]float64{}
	for i, s := range t.spans {
		if isLayer[s.Name] {
			total[s.Op] += self[i]
		}
	}
	var out []float64
	for _, s := range t.spans {
		if sum, ok := total[s.Op]; ok && s.Name == root {
			out = append(out, float64(s.End-s.Start)/1e6-sum)
		}
	}
	return out
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
