package agent

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"robusttomo/internal/failure"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// exampleDeployment spins up one monitor per example-network monitor node
// and a NOC over the 15 candidate paths.
func exampleDeployment(t *testing.T, scenarios []failure.Scenario) (*tomo.PathMatrix, []float64, *StreamNOC, []*Monitor) {
	t.Helper()
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := tomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]float64, pm.NumLinks())
	for i := range metrics {
		metrics[i] = 1 + float64(i)*0.25
	}
	oracle, err := NewEpochOracle(metrics, scenarios)
	if err != nil {
		t.Fatal(err)
	}

	monitors := map[string]string{}
	var started []*Monitor
	for _, mn := range ex.Monitors {
		name := ex.Graph.Label(mn)
		m, err := StartMonitor(name, "127.0.0.1:0", oracle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := m.Close(); err != nil {
				t.Errorf("close %s: %v", m.Name(), err)
			}
		})
		monitors[name] = m.Addr()
		started = append(started, m)
	}
	noc, err := NewStreamNOC(StreamConfig{
		PM:       pm,
		Monitors: monitors,
		SourceOf: func(path int) string { return ex.Graph.Label(pm.Path(path).Src) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { noc.Close() })
	return pm, metrics, noc, started
}

func allPaths(pm *tomo.PathMatrix) []int {
	idx := make([]int, pm.NumPaths())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestCollectEpochNoFailures(t *testing.T) {
	pm, metrics, noc, monitors := exampleDeployment(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ms, err := noc.CollectEpoch(ctx, 0, allPaths(pm))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != pm.NumPaths() {
		t.Fatalf("measurements = %d, want %d", len(ms), pm.NumPaths())
	}
	truth, _ := pm.TrueMeasurements(metrics)
	for _, m := range ms {
		if !m.OK {
			t.Fatalf("path %d failed without failures", m.PathID)
		}
		if math.Abs(m.Value-truth[m.PathID]) > 1e-9 {
			t.Fatalf("path %d measured %v, want %v", m.PathID, m.Value, truth[m.PathID])
		}
	}
	served := 0
	for _, m := range monitors {
		served += m.ProbesServed()
	}
	if served != pm.NumPaths() {
		t.Fatalf("monitors served %d probes, want %d", served, pm.NumPaths())
	}
}

func TestCollectEpochWithFailure(t *testing.T) {
	ex := topo.NewExample()
	failed := make([]bool, 8)
	failed[ex.Bridge] = true
	scenarios := []failure.Scenario{{Failed: failed}}

	pm, metrics, noc, _ := exampleDeployment(t, scenarios)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ms, err := noc.CollectEpoch(ctx, 0, allPaths(pm))
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := pm.TrueMeasurements(metrics)
	okCount := 0
	for _, m := range ms {
		usesBridge := pm.Path(m.PathID).Uses(ex.Bridge)
		if m.OK == usesBridge {
			t.Fatalf("path %d: ok=%v but usesBridge=%v", m.PathID, m.OK, usesBridge)
		}
		if m.OK {
			okCount++
			if math.Abs(m.Value-truth[m.PathID]) > 1e-9 {
				t.Fatalf("path %d measured %v, want %v", m.PathID, m.Value, truth[m.PathID])
			}
		}
	}
	if okCount != 7 {
		t.Fatalf("surviving measurements = %d, want 7", okCount)
	}

	// Epoch 1 is beyond the schedule: failure-free again.
	ms, err = noc.CollectEpoch(ctx, 1, allPaths(pm))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if !m.OK {
			t.Fatalf("path %d failed in scheduled-free epoch", m.PathID)
		}
	}
}

func TestEndToEndInference(t *testing.T) {
	ex := topo.NewExample()
	failed := make([]bool, 8)
	failed[ex.Bridge] = true
	pm, metrics, noc, _ := exampleDeployment(t, []failure.Scenario{{Failed: failed}})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ms, err := noc.CollectEpoch(ctx, 0, allPaths(pm))
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	var y []float64
	for _, m := range ms {
		if m.OK {
			idx = append(idx, m.PathID)
			y = append(y, m.Value)
		}
	}
	sys, err := tomo.NewSystem(pm, idx, y)
	if err != nil {
		t.Fatal(err)
	}
	values, ident, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for j := range metrics {
		if j == int(ex.Bridge) {
			if ident[j] {
				t.Fatal("failed bridge claimed identifiable")
			}
			continue
		}
		if !ident[j] {
			t.Fatalf("link %d not identifiable", j)
		}
		if math.Abs(values[j]-metrics[j]) > 1e-8 {
			t.Fatalf("link %d inferred %v, want %v", j, values[j], metrics[j])
		}
	}
}

func TestNOCValidation(t *testing.T) {
	pm, _ := tomo.NewPathMatrix([]routing.Path{{Src: 0, Dst: 1, Edges: nil}}, 1)
	if _, err := NewStreamNOC(StreamConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewStreamNOC(StreamConfig{PM: pm}); err == nil {
		t.Fatal("missing monitors accepted")
	}
	if _, err := NewStreamNOC(StreamConfig{PM: pm, Monitors: map[string]string{"m": "x"}}); err == nil {
		t.Fatal("missing SourceOf accepted")
	}
}

func TestCollectEpochUnknownMonitor(t *testing.T) {
	pm, _, noc, _ := exampleDeployment(t, nil)
	badNoc, err := NewStreamNOC(StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"only": "127.0.0.1:1"},
		SourceOf: func(int) string { return "ghost" },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer badNoc.Close()
	ctx := context.Background()
	if _, err := badNoc.CollectEpoch(ctx, 0, []int{0}); err == nil {
		t.Fatal("unknown monitor accepted")
	}
	if _, err := noc.CollectEpoch(ctx, 0, []int{9999}); err == nil {
		t.Fatal("out-of-range path accepted")
	}
}

func TestCollectEpochDeadMonitor(t *testing.T) {
	pm, _, _, _ := exampleDeployment(t, nil)
	noc, err := NewStreamNOC(StreamConfig{
		PM:       pm,
		Monitors: map[string]string{"dead": "127.0.0.1:1"}, // nothing listens
		SourceOf: func(int) string { return "dead" },
		// Short timeout so the test fails fast.
		Timeouts: Timeouts{Dial: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer noc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := noc.CollectEpoch(ctx, 0, []int{0}); err == nil {
		t.Fatal("dead monitor produced measurements")
	}
}

func TestCollectEpochContextCancelled(t *testing.T) {
	pm, _, noc, _ := exampleDeployment(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled
	if _, err := noc.CollectEpoch(ctx, 0, allPaths(pm)); err == nil {
		t.Fatal("cancelled context produced measurements")
	}
}

func TestCollectEpochEmptySelection(t *testing.T) {
	_, _, noc, _ := exampleDeployment(t, nil)
	ms, err := noc.CollectEpoch(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("measurements = %v", ms)
	}
}

func TestCollectEpochConcurrent(t *testing.T) {
	// Concurrent collections of distinct epochs must not interfere (run
	// with -race in CI).
	pm, metrics, noc, _ := exampleDeployment(t, nil)
	truth, _ := pm.TrueMeasurements(metrics)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(epoch int) {
			ms, err := noc.CollectEpoch(ctx, epoch, allPaths(pm))
			if err != nil {
				errs <- err
				return
			}
			for _, m := range ms {
				if !m.OK || math.Abs(m.Value-truth[m.PathID]) > 1e-9 {
					errs <- fmt.Errorf("epoch %d path %d: %+v", epoch, m.PathID, m)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMonitorRejectsGarbage(t *testing.T) {
	oracle, _ := NewEpochOracle([]float64{1}, nil)
	m, err := StartMonitor("m", "127.0.0.1:0", oracle)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The monitor should close the session without replying.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	if _, err := r.ReadBytes('\n'); err == nil {
		t.Fatal("monitor replied to garbage")
	}
}

func TestStartMonitorValidation(t *testing.T) {
	if _, err := StartMonitor("m", "127.0.0.1:0", nil); err == nil {
		t.Fatal("nil oracle accepted")
	}
	if _, err := StartMonitor("m", "256.256.256.256:0", &EpochOracle{metrics: []float64{1}}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestEpochOracleValidation(t *testing.T) {
	if _, err := NewEpochOracle(nil, nil); err == nil {
		t.Fatal("empty metrics accepted")
	}
	if _, err := NewEpochOracle([]float64{1}, []failure.Scenario{{Failed: []bool{true, false}}}); err == nil {
		t.Fatal("mis-sized scenario accepted")
	}
	oracle, err := NewEpochOracle([]float64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := oracle.Measure(0, []int{5}); ok {
		t.Fatal("out-of-range link measured")
	}
	v, ok := oracle.Measure(0, []int{0, 1})
	if !ok || v != 3 {
		t.Fatalf("Measure = %v, %v", v, ok)
	}
}

func TestProtocolPeekType(t *testing.T) {
	if mt, err := peekType([]byte(`{"type":"batch"}`)); err != nil || mt != MsgBatch {
		t.Fatalf("peekType = %q, %v", mt, err)
	}
	if _, err := peekType([]byte(`nope`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
