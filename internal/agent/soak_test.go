package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"robusttomo/internal/graph"
	"robusttomo/internal/routing"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// TestAgentSoak hammers the fault-tolerant collection plane for a few
// seconds: three monitors behind seeded fault scripts (rejects, mid-stream
// resets, garbage frames), four concurrent collectors, and a monitor that
// is killed and restarted mid-run. Each collector owns the epochs
// congruent to its index, because the assembler opens an epoch once.
// Invariants: every epoch ends in either full data or a typed
// *CollectionError, OK measurements are exact, and the run finishes inside
// the bound.
//
// Gated behind AGENT_SOAK=1 (wired as `make soak-agent`, bounded < 30s);
// the regular suite covers the same paths with single-shot scripts.
func TestAgentSoak(t *testing.T) {
	if os.Getenv("AGENT_SOAK") == "" {
		t.Skip("set AGENT_SOAK=1 (make soak-agent) to run the fault-injection soak")
	}

	const (
		numMonitors = 3
		pathsPerMon = 4
		workers     = 4
		soakFor     = 5 * time.Second
	)
	var paths []routing.Path
	links := numMonitors * pathsPerMon
	metrics := make([]float64, links)
	for m := 0; m < numMonitors; m++ {
		for p := 0; p < pathsPerMon; p++ {
			l := m*pathsPerMon + p
			paths = append(paths, routing.Path{Src: graph.NodeID(m), Dst: 99, Edges: []graph.EdgeID{graph.EdgeID(l)}})
			metrics[l] = 1 + float64(l)*0.5
		}
	}
	pm, err := tomo.NewPathMatrix(paths, links)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEpochOracle(metrics, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Seeded fault scripts: a deterministic mix of rejects, mid-stream
	// resets and garbage frames, then clean connections forever.
	rng := stats.NewRNG(2014, 0xF417)
	names := make([]string, numMonitors)
	addrs := map[string]string{}
	for m := 0; m < numMonitors; m++ {
		names[m] = fmt.Sprintf("m%d", m)
		var script []ConnFault
		for i := 0; i < 20; i++ {
			switch rng.IntN(4) {
			case 0:
				script = append(script, ConnFault{Reject: true})
			case 1:
				script = append(script, ConnFault{ServeReplies: 1 + rng.IntN(pathsPerMon)})
			case 2:
				script = append(script, ConnFault{GarbageReplies: 1})
			default:
				script = append(script, ConnFault{}) // clean
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mon, err := StartMonitorOn(names[m], NewFaultyListener(ln, script...), oracle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mon.Close() })
		addrs[names[m]] = mon.Addr()
		if m == 0 {
			// Monitor 0 gets killed and restarted mid-soak.
			go func(addr string) {
				time.Sleep(soakFor / 3)
				mon.Close()
				time.Sleep(soakFor / 3)
				ln2, err := net.Listen("tcp", addr)
				if err != nil {
					return // port raced away; the soak tolerates it
				}
				mon2, err := StartMonitorOn(names[0], ln2, oracle)
				if err != nil {
					return
				}
				t.Cleanup(func() { mon2.Close() })
			}(mon.Addr())
		}
	}

	noc, err := NewStreamNOC(StreamConfig{
		PM:        pm,
		Monitors:  addrs,
		SourceOf:  func(p int) string { return names[pm.Path(p).Src] },
		Watermark: 200 * time.Millisecond,
		Retry:     RetryPolicy{MaxAttempts: 3},
		Breaker:   BreakerPolicy{FailureThreshold: 4, Cooldown: 200 * time.Millisecond},
		Timeouts:  Timeouts{Dial: 300 * time.Millisecond, Exchange: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer noc.Close()

	selected := make([]int, pm.NumPaths())
	for i := range selected {
		selected[i] = i
	}
	deadline := time.Now().Add(soakFor)
	ctx, cancel := context.WithTimeout(context.Background(), soakFor+10*time.Second)
	defer cancel()

	type tally struct {
		epochs, degraded, measurements int
	}
	results := make(chan tally, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var tl tally
			for epoch := w; time.Now().Before(deadline); epoch += workers {
				ms, err := noc.CollectEpoch(ctx, epoch, selected)
				tl.epochs++
				if err != nil {
					var cerr *CollectionError
					if !errors.As(err, &cerr) {
						errs <- fmt.Errorf("epoch %d: untyped error %v", epoch, err)
						return
					}
					if !errors.Is(err, ErrMonitorUnreachable) && !errors.Is(err, ErrCircuitOpen) {
						errs <- fmt.Errorf("epoch %d: no sentinel in chain: %v", epoch, err)
						return
					}
					tl.degraded++
				}
				for _, m := range ms {
					tl.measurements++
					if !m.OK || math.Abs(m.Value-metrics[m.PathID]) > 1e-9 {
						errs <- fmt.Errorf("epoch %d: bad measurement %+v", epoch, m)
						return
					}
				}
			}
			results <- tl
			errs <- nil
		}(w)
	}
	var total tally
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		tl := <-results
		total.epochs += tl.epochs
		total.degraded += tl.degraded
		total.measurements += tl.measurements
	}
	if total.epochs == 0 || total.measurements == 0 {
		t.Fatalf("soak made no progress: %+v", total)
	}
	if total.degraded == 0 {
		t.Fatalf("soak never degraded — fault scripts not exercised: %+v", total)
	}
	t.Logf("soak: %d epochs (%d degraded), %d exact measurements, breakers %v",
		total.epochs, total.degraded, total.measurements, noc.BreakerStates())
}
