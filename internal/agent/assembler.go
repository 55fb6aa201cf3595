package agent

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Watermark epoch assembly: the streaming plane ingests measurements
// continuously, and an epoch is handed to the consumer either when every
// expected path has reported or when the watermark elapses — whichever
// comes first. Results that arrive after their epoch sealed are not
// dropped and do not stall the collector: they are folded forward into the
// next sealed epoch's AssembledEpoch.Late, tagged with their origin epoch,
// so consumers (the sim Runner's aggregator) can still use them.
//
// Policies, shared with the serial reference assembly the tests compare
// against bit-for-bit:
//
//   - membership: an open epoch accepts a result only for a path it was
//     opened with, and only from the monitor that owns that path. Any
//     other result is dropped and counted, so a buggy or hostile monitor
//     can neither inject path IDs the consumer never probed nor answer for
//     another monitor's paths.
//   - dedup: the first result for an (epoch, path) pair wins; later
//     duplicates are counted, not applied.
//   - late: a result for an epoch that is not open (already sealed, or
//     never opened) goes to the late buffer, drained at the next Seal in
//     arrival order. The buffer is bounded; overflow is counted and
//     dropped so a runaway peer cannot grow memory.
//   - out-of-order: any number of epochs may be open at once; results
//     route by epoch number, not arrival order.

// Measurement is one collected end-to-end measurement.
type Measurement struct {
	PathID int
	OK     bool
	Value  float64
}

// LateMeasurement is a measurement that arrived after its epoch sealed,
// folded forward into a later assembled epoch.
type LateMeasurement struct {
	// Epoch is the origin epoch the measurement belongs to.
	Epoch int
	Measurement
}

// AssembledEpoch is the watermark assembler's output for one epoch.
type AssembledEpoch struct {
	Epoch int
	// Measurements holds the results that arrived before the seal, sorted
	// by path ID, duplicates removed (first wins).
	Measurements []Measurement
	// Missing lists expected paths that never reported, sorted.
	Missing []int
	// Late holds older-epoch results folded forward into this seal, in
	// arrival order, each tagged with its origin epoch.
	Late []LateMeasurement
	// Duplicates counts results discarded by dedup for this epoch.
	Duplicates int
	// LateDropped counts late results discarded because the late buffer
	// was full at the time they arrived (reported on the next seal).
	LateDropped int
}

// ingestStats summarizes one Ingest call for the metrics plane.
type ingestStats struct {
	duplicates int
	foreign    int // results for paths the open epoch does not expect from their sender
	late       int
	lateDrop   int
	// lag is the arrival lag behind the seal for late results (zero when
	// the seal time is no longer tracked).
	lag time.Duration
}

// pathState is where one path of an open epoch stands.
type pathState uint8

const (
	pathOutstanding pathState = iota // probed, no result yet
	pathAbandoned                    // its probe could not be sent
	pathReceived                     // its first result was accepted
)

// pathEntry is one expected path of an open epoch: the monitor that owns
// it, as an index into epochAssembly.owners (a string per path made each
// epoch allocate 15% more), and where it stands.
type pathEntry struct {
	owner int32
	state pathState
}

// epochAssembly is one open epoch's accumulation state.
type epochAssembly struct {
	owners      []string
	paths       map[int]pathEntry // every path the epoch was opened with
	outstanding int               // paths still in pathOutstanding
	got         []Measurement     // arrival order; sorted at seal
	duplicates  int
	done        chan struct{} // closed when outstanding drains
	doneClosed  bool
}

// assembler is the concurrent watermark assembler. All methods are safe
// for concurrent use; the injectable clock only feeds the lag metric, so
// assembly output is a pure function of the call sequence (the property
// the serial-reference tests assert).
type assembler struct {
	mu          sync.Mutex
	now         func() time.Time
	maxLate     int
	open        map[int]*epochAssembly
	late        []LateMeasurement
	lateDropped int
	// sealedAt remembers recent seal times for the watermark-lag metric,
	// bounded by sealedRing.
	sealedAt   map[int]time.Time
	sealedRing []int
}

// maxSealedTracked bounds how many sealed epochs keep their seal time for
// lag measurement.
const maxSealedTracked = 16

func newAssembler(now func() time.Time, maxLate int) *assembler {
	if now == nil {
		now = time.Now
	}
	if maxLate <= 0 {
		maxLate = 1 << 16
	}
	return &assembler{
		now:      now,
		maxLate:  maxLate,
		open:     make(map[int]*epochAssembly),
		sealedAt: make(map[int]time.Time),
	}
}

// openEpoch registers an epoch and its expected paths, keyed by the
// monitor that owns them, returning a channel closed once every expected
// path has reported. Opening an already-open epoch is an error; an empty
// expectation completes immediately.
func (a *assembler) openEpoch(epoch int, byOwner map[string][]int) (<-chan struct{}, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.open[epoch]; ok {
		return nil, fmt.Errorf("agent: epoch %d already open in assembler", epoch)
	}
	n := 0
	for _, paths := range byOwner {
		n += len(paths)
	}
	ea := &epochAssembly{
		owners: make([]string, 0, len(byOwner)),
		paths:  make(map[int]pathEntry, n),
		done:   make(chan struct{}),
	}
	for owner, paths := range byOwner {
		idx := int32(len(ea.owners))
		ea.owners = append(ea.owners, owner)
		for _, p := range paths {
			if _, dup := ea.paths[p]; !dup {
				ea.paths[p] = pathEntry{owner: idx}
				ea.outstanding++
			}
		}
	}
	ea.checkComplete()
	a.open[epoch] = ea
	return ea.done, nil
}

// abandon removes paths from an open epoch's expectation — the caller
// could not send their probes (backpressure, open breaker) — so the epoch
// can still complete without waiting out the watermark for results that
// will never come.
func (a *assembler) abandon(epoch int, paths []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ea, ok := a.open[epoch]
	if !ok {
		return
	}
	for _, p := range paths {
		if pe, ok := ea.paths[p]; ok && pe.state == pathOutstanding {
			pe.state = pathAbandoned
			ea.paths[p] = pe
			ea.outstanding--
		}
	}
	ea.checkComplete()
}

func (ea *epochAssembly) checkComplete() {
	if ea.outstanding == 0 && !ea.doneClosed {
		close(ea.done)
		ea.doneClosed = true
	}
}

// ingest routes one result batch from a monitor. Results for open epochs
// accumulate (first-wins dedup, foreign results dropped); results for
// anything else land in the bounded late buffer for the next seal.
func (a *assembler) ingest(epoch int, monitor string, results []Measurement) ingestStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var st ingestStats
	ea, ok := a.open[epoch]
	if !ok {
		for _, m := range results {
			if len(a.late) >= a.maxLate {
				a.lateDropped++
				st.lateDrop++
				continue
			}
			a.late = append(a.late, LateMeasurement{Epoch: epoch, Measurement: m})
			st.late++
		}
		if sealed, ok := a.sealedAt[epoch]; ok && st.late+st.lateDrop > 0 {
			st.lag = a.now().Sub(sealed)
		}
		return st
	}
	for _, m := range results {
		pe, ok := ea.paths[m.PathID]
		switch {
		case !ok || ea.owners[pe.owner] != monitor:
			st.foreign++
			continue
		case pe.state == pathReceived:
			ea.duplicates++
			st.duplicates++
			continue
		case pe.state == pathOutstanding:
			ea.outstanding--
		}
		pe.state = pathReceived
		ea.paths[m.PathID] = pe
		ea.got = append(ea.got, m)
	}
	ea.checkComplete()
	return st
}

// seal closes the epoch: no more results fold into it (they become late),
// and the assembled output — sorted measurements, sorted missing paths,
// the drained late buffer — is returned. Sealing an epoch that was never
// opened yields a zero AssembledEpoch carrying only the late drain.
func (a *assembler) seal(epoch int) AssembledEpoch {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := AssembledEpoch{Epoch: epoch}
	if ea, ok := a.open[epoch]; ok {
		delete(a.open, epoch)
		out.Measurements = ea.got
		sort.Slice(out.Measurements, func(i, j int) bool {
			return out.Measurements[i].PathID < out.Measurements[j].PathID
		})
		out.Missing = make([]int, 0, ea.outstanding)
		for p, pe := range ea.paths {
			if pe.state == pathOutstanding {
				out.Missing = append(out.Missing, p)
			}
		}
		sort.Ints(out.Missing)
		out.Duplicates = ea.duplicates
	}
	out.Late = a.late
	a.late = nil
	out.LateDropped = a.lateDropped
	a.lateDropped = 0

	a.sealedAt[epoch] = a.now()
	a.sealedRing = append(a.sealedRing, epoch)
	if len(a.sealedRing) > maxSealedTracked {
		delete(a.sealedAt, a.sealedRing[0])
		a.sealedRing = a.sealedRing[1:]
	}
	return out
}
