package agent

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"robusttomo/internal/stats"
)

// The assembler's contract is deterministic: output is a pure function of
// the call sequence. These tests replay event scripts through both the
// concurrent assembler and an independently written serial reference and
// require bit-identical AssembledEpochs (satellite: late fold-in,
// duplicate dedup, out-of-order epochs, injectable clock).

type asmEvent struct {
	kind    string // "open", "ingest", "abandon", "seal", "tick"
	epoch   int
	paths   []int         // open/abandon
	monitor string        // open: the paths' owner; ingest: the sender
	results []Measurement // ingest
	d       time.Duration // tick
}

// refAssembler is the serial reference: same policies, written as a plain
// single-threaded replay with no channels or locks.
type refAssembler struct {
	open        map[int]*refEpoch
	late        []LateMeasurement
	lateDropped int
	maxLate     int
}

type refEpoch struct {
	owner  map[int]string // opened path → the monitor that owns it
	expect map[int]bool
	order  []Measurement
	seen   map[int]bool
	dups   int
}

func newRefAssembler(maxLate int) *refAssembler {
	if maxLate <= 0 {
		maxLate = 1 << 16 // mirror newAssembler's default
	}
	return &refAssembler{open: map[int]*refEpoch{}, maxLate: maxLate}
}

func (r *refAssembler) replay(ev asmEvent) *AssembledEpoch {
	switch ev.kind {
	case "open":
		re := &refEpoch{owner: map[int]string{}, expect: map[int]bool{}, seen: map[int]bool{}}
		for _, p := range ev.paths {
			re.owner[p] = ev.monitor
			re.expect[p] = true
		}
		r.open[ev.epoch] = re
	case "abandon":
		if re, ok := r.open[ev.epoch]; ok {
			for _, p := range ev.paths {
				delete(re.expect, p)
			}
		}
	case "ingest":
		re, ok := r.open[ev.epoch]
		if !ok {
			for _, m := range ev.results {
				if len(r.late) >= r.maxLate {
					r.lateDropped++
					continue
				}
				r.late = append(r.late, LateMeasurement{Epoch: ev.epoch, Measurement: m})
			}
			return nil
		}
		for _, m := range ev.results {
			if owner, ok := re.owner[m.PathID]; !ok || owner != ev.monitor {
				continue // not a path this epoch probed from this sender: dropped
			}
			if re.seen[m.PathID] {
				re.dups++
				continue
			}
			re.seen[m.PathID] = true
			re.order = append(re.order, m)
			delete(re.expect, m.PathID)
		}
	case "seal":
		out := AssembledEpoch{Epoch: ev.epoch}
		if re, ok := r.open[ev.epoch]; ok {
			delete(r.open, ev.epoch)
			out.Measurements = re.order
			sort.Slice(out.Measurements, func(i, j int) bool {
				return out.Measurements[i].PathID < out.Measurements[j].PathID
			})
			out.Missing = []int{}
			for p := range re.expect {
				out.Missing = append(out.Missing, p)
			}
			sort.Ints(out.Missing)
			out.Duplicates = re.dups
		}
		out.Late = r.late
		r.late = nil
		out.LateDropped = r.lateDropped
		r.lateDropped = 0
		return &out
	}
	return nil
}

// runScript replays the same event script through the concurrent
// assembler and the serial reference, returning both seal sequences.
func runScript(t *testing.T, script []asmEvent, maxLate int) (got, want []AssembledEpoch) {
	t.Helper()
	clock := time.Unix(2014, 0)
	a := newAssembler(func() time.Time { return clock }, maxLate)
	ref := newRefAssembler(maxLate)
	for _, ev := range script {
		switch ev.kind {
		case "open":
			if _, err := a.openEpoch(ev.epoch, map[string][]int{ev.monitor: ev.paths}); err != nil {
				t.Fatalf("open %d: %v", ev.epoch, err)
			}
		case "abandon":
			a.abandon(ev.epoch, ev.paths)
		case "ingest":
			a.ingest(ev.epoch, ev.monitor, ev.results)
		case "seal":
			got = append(got, a.seal(ev.epoch))
		case "tick":
			clock = clock.Add(ev.d)
			continue
		}
		if out := ref.replay(ev); out != nil {
			want = append(want, *out)
		}
	}
	return got, want
}

// normalizeEmpty maps nil and empty slices onto each other so DeepEqual
// compares content; float bit patterns still compare exactly through the
// Measurement values.
func normalizeEmpty(es []AssembledEpoch) {
	for i := range es {
		if len(es[i].Measurements) == 0 {
			es[i].Measurements = nil
		}
		if len(es[i].Missing) == 0 {
			es[i].Missing = nil
		}
		if len(es[i].Late) == 0 {
			es[i].Late = nil
		}
	}
}

func assertMatchesReference(t *testing.T, got, want []AssembledEpoch) {
	t.Helper()
	normalizeEmpty(got)
	normalizeEmpty(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assembler diverged from serial reference:\n got %+v\nwant %+v", got, want)
	}
}

func m(path int, v float64) Measurement { return Measurement{PathID: path, OK: true, Value: v} }

// TestAssemblerLateFoldIn: results arriving after their epoch seals fold
// into the next seal's Late list, tagged with their origin epoch.
func TestAssemblerLateFoldIn(t *testing.T) {
	script := []asmEvent{
		{kind: "open", epoch: 0, paths: []int{1, 2, 3}},
		{kind: "ingest", epoch: 0, results: []Measurement{m(1, 1.5), m(2, 2.5)}},
		{kind: "seal", epoch: 0}, // path 3 missing
		{kind: "tick", d: 250 * time.Millisecond},
		{kind: "ingest", epoch: 0, results: []Measurement{m(3, 3.5)}}, // late
		{kind: "open", epoch: 1, paths: []int{1, 2}},
		{kind: "ingest", epoch: 1, results: []Measurement{m(1, 1.5), m(2, 2.5)}},
		{kind: "seal", epoch: 1},
	}
	got, want := runScript(t, script, 0)
	assertMatchesReference(t, got, want)
	if len(got) != 2 || len(got[0].Missing) != 1 || got[0].Missing[0] != 3 {
		t.Fatalf("epoch 0 should miss path 3: %+v", got[0])
	}
	if len(got[1].Late) != 1 || got[1].Late[0].Epoch != 0 || got[1].Late[0].PathID != 3 {
		t.Fatalf("late result not folded into epoch 1: %+v", got[1].Late)
	}
}

// TestAssemblerDuplicateDedup: duplicate results are first-wins within an
// epoch, and the discard is counted.
func TestAssemblerDuplicateDedup(t *testing.T) {
	script := []asmEvent{
		{kind: "open", epoch: 5, paths: []int{7, 8}},
		{kind: "ingest", epoch: 5, results: []Measurement{m(7, 1.0)}},
		{kind: "ingest", epoch: 5, results: []Measurement{m(7, 99.0), m(8, 2.0), m(8, 42.0)}},
		{kind: "seal", epoch: 5},
	}
	got, want := runScript(t, script, 0)
	assertMatchesReference(t, got, want)
	if got[0].Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", got[0].Duplicates)
	}
	if got[0].Measurements[0].Value != 1.0 || got[0].Measurements[1].Value != 2.0 {
		t.Fatalf("dedup is not first-wins: %+v", got[0].Measurements)
	}
}

// TestAssemblerOutOfOrderEpochs: multiple epochs open at once, results
// arriving interleaved and out of epoch order, seals in a different order
// still route everything correctly.
func TestAssemblerOutOfOrderEpochs(t *testing.T) {
	script := []asmEvent{
		{kind: "open", epoch: 10, paths: []int{0, 1}},
		{kind: "open", epoch: 11, paths: []int{0, 1}},
		{kind: "open", epoch: 12, paths: []int{2}},
		{kind: "ingest", epoch: 12, results: []Measurement{m(2, 12.2)}},
		{kind: "ingest", epoch: 11, results: []Measurement{m(1, 11.1)}},
		{kind: "ingest", epoch: 10, results: []Measurement{m(0, 10.0), m(1, 10.1)}},
		{kind: "ingest", epoch: 11, results: []Measurement{m(0, 11.0)}},
		{kind: "seal", epoch: 11},
		{kind: "seal", epoch: 10},
		{kind: "ingest", epoch: 11, results: []Measurement{m(1, 999)}}, // late after its seal
		{kind: "seal", epoch: 12},
	}
	got, want := runScript(t, script, 0)
	assertMatchesReference(t, got, want)
	if got[2].Epoch != 12 || len(got[2].Late) != 1 || got[2].Late[0].Epoch != 11 {
		t.Fatalf("out-of-order late routing broken: %+v", got[2])
	}
}

// TestAssemblerDropsForeignPaths: an open epoch accepts a result only for
// a path it was opened with, and only from the monitor that owns it.
// Anything else is dropped and counted, and cannot complete the epoch.
func TestAssemblerDropsForeignPaths(t *testing.T) {
	a := newAssembler(nil, 0)
	done, err := a.openEpoch(0, map[string][]int{"a": {1, 2}, "b": {3}})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown path IDs, in range or not.
	if st := a.ingest(0, "a", []Measurement{m(1, 1), m(7, 7), m(-3, 3)}); st.foreign != 2 {
		t.Fatalf("foreign = %d, want 2", st.foreign)
	}
	// Another monitor answering a's path 2 and b answering for itself:
	// only b's own path counts.
	if st := a.ingest(0, "b", []Measurement{m(2, 99), m(3, 3)}); st.foreign != 1 {
		t.Fatalf("foreign = %d, want 1 (b answering a's path)", st.foreign)
	}
	select {
	case <-done:
		t.Fatal("foreign results completed the epoch")
	default:
	}
	// a's own answer for path 2 still lands: the spoof did not consume it.
	if st := a.ingest(0, "a", []Measurement{m(2, 2)}); st.foreign != 0 || st.duplicates != 0 {
		t.Fatalf("owner's answer rejected: %+v", st)
	}
	select {
	case <-done:
	default:
		t.Fatal("epoch did not complete once every owner answered")
	}
	out := a.seal(0)
	want := []Measurement{m(1, 1), m(2, 2), m(3, 3)}
	if !reflect.DeepEqual(out.Measurements, want) || len(out.Missing) != 0 || out.Duplicates != 0 {
		t.Fatalf("foreign results leaked into the epoch: %+v", out)
	}
}

// TestAssemblerAbandonCompletes: abandoning unsendable paths lets the done
// channel fire without waiting out the watermark.
func TestAssemblerAbandonCompletes(t *testing.T) {
	a := newAssembler(nil, 0)
	done, err := a.openEpoch(3, map[string][]int{"a": {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	a.ingest(3, "a", []Measurement{m(1, 0.5)})
	select {
	case <-done:
		t.Fatal("done fired with paths outstanding")
	default:
	}
	a.abandon(3, []int{2, 3})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("done did not fire after abandon drained the expectation")
	}
	out := a.seal(3)
	if len(out.Missing) != 0 || len(out.Measurements) != 1 {
		t.Fatalf("abandoned paths should not read as missing: %+v", out)
	}
}

// TestAssemblerLateBufferBounded: a runaway peer cannot grow the late
// buffer beyond its bound; the overflow is counted.
func TestAssemblerLateBufferBounded(t *testing.T) {
	script := []asmEvent{
		{kind: "open", epoch: 0, paths: []int{0}},
		{kind: "ingest", epoch: 0, results: []Measurement{m(0, 1)}},
		{kind: "seal", epoch: 0},
	}
	for i := 0; i < 10; i++ {
		script = append(script, asmEvent{kind: "ingest", epoch: 0,
			results: []Measurement{m(i, float64(i))}})
	}
	script = append(script,
		asmEvent{kind: "open", epoch: 1, paths: []int{0}},
		asmEvent{kind: "ingest", epoch: 1, results: []Measurement{m(0, 1)}},
		asmEvent{kind: "seal", epoch: 1},
	)
	got, want := runScript(t, script, 4) // late buffer bound 4
	assertMatchesReference(t, got, want)
	final := got[len(got)-1]
	if len(final.Late) != 4 || final.LateDropped != 6 {
		t.Fatalf("late bound not enforced: late=%d dropped=%d", len(final.Late), final.LateDropped)
	}
}

// TestAssemblerRandomizedAgainstReference fuzzes event scripts from a
// seeded RNG: whatever the mix of opens, out-of-order ingests, dups,
// lates, foreign senders and seals, the concurrent assembler must match
// the reference bit-for-bit.
func TestAssemblerRandomizedAgainstReference(t *testing.T) {
	rng := stats.NewRNG(2014, 0xA55E)
	monitors := []string{"a", "b"}
	for trial := 0; trial < 50; trial++ {
		var script []asmEvent
		opened := []int{}
		nextEpoch := 0
		for len(script) < 60 {
			switch rng.IntN(5) {
			case 0:
				paths := make([]int, rng.IntN(6))
				for i := range paths {
					paths[i] = rng.IntN(8)
				}
				script = append(script, asmEvent{kind: "open", epoch: nextEpoch, paths: paths,
					monitor: monitors[rng.IntN(len(monitors))]})
				opened = append(opened, nextEpoch)
				nextEpoch++
			case 1, 2:
				epoch := rng.IntN(nextEpoch + 1) // may target sealed/unknown epochs
				results := make([]Measurement, rng.IntN(4))
				for i := range results {
					results[i] = Measurement{
						PathID: rng.IntN(8),
						OK:     rng.IntN(3) > 0,
						Value:  math.Floor(rng.Float64()*1000) / 8,
					}
				}
				script = append(script, asmEvent{kind: "ingest", epoch: epoch, results: results,
					monitor: monitors[rng.IntN(len(monitors))]})
			case 3:
				if len(opened) > 0 {
					i := rng.IntN(len(opened))
					script = append(script, asmEvent{kind: "seal", epoch: opened[i]})
					opened = append(opened[:i], opened[i+1:]...)
				}
			case 4:
				if len(opened) > 0 {
					paths := make([]int, rng.IntN(3))
					for i := range paths {
						paths[i] = rng.IntN(8)
					}
					script = append(script, asmEvent{kind: "abandon", epoch: opened[rng.IntN(len(opened))], paths: paths})
				}
			}
		}
		for _, e := range opened {
			script = append(script, asmEvent{kind: "seal", epoch: e})
		}
		got, want := runScript(t, script, 8)
		assertMatchesReference(t, got, want)
	}
}

// TestAssemblerConcurrentIngest hammers one epoch from many goroutines
// with disjoint path sets (race-detector coverage); the sealed output must
// contain exactly the union.
func TestAssemblerConcurrentIngest(t *testing.T) {
	const workers, per = 8, 200
	a := newAssembler(nil, 0)
	expected := make([]int, workers*per)
	for i := range expected {
		expected[i] = i
	}
	done, err := a.openEpoch(0, map[string][]int{"a": expected})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := w*per + i
				a.ingest(0, "a", []Measurement{m(p, float64(p))})
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-done:
	default:
		t.Fatal("epoch did not complete after all paths reported")
	}
	out := a.seal(0)
	if len(out.Measurements) != workers*per || len(out.Missing) != 0 {
		t.Fatalf("concurrent ingest lost data: got %d measurements, %d missing",
			len(out.Measurements), len(out.Missing))
	}
	for i, meas := range out.Measurements {
		if meas.PathID != i || meas.Value != float64(i) {
			t.Fatalf("measurement %d corrupted: %+v", i, meas)
		}
	}
}
