package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/obs"
	"robusttomo/internal/routing"
	"robusttomo/internal/tomo"
)

// streamPanel is a small single-link-per-path test topology: monitor m owns
// pathsPerMon consecutive paths, path p crosses only link p.
type streamPanel struct {
	pm      *tomo.PathMatrix
	oracle  *EpochOracle
	names   []string
	metrics []float64
	all     []int // every path index
}

func buildStreamPanel(t testing.TB, numMonitors, pathsPerMon int) *streamPanel {
	t.Helper()
	links := numMonitors * pathsPerMon
	var paths []routing.Path
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
	names := make([]string, numMonitors)
	all := make([]int, pm.NumPaths())
	for i := range all {
		all[i] = i
	}
	for m := range names {
		names[m] = fmt.Sprintf("m%d", m)
	}
	return &streamPanel{pm: pm, oracle: oracle, names: names, metrics: metrics, all: all}
}

func (p *streamPanel) sourceOf(path int) string { return p.names[p.pm.Path(path).Src] }

// startMonitors launches one Monitor per name, returning the address map.
func (p *streamPanel) startMonitors(t testing.TB) map[string]string {
	t.Helper()
	addrs := map[string]string{}
	for _, name := range p.names {
		mon, err := StartMonitor(name, "127.0.0.1:0", p.oracle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mon.Close() })
		addrs[name] = mon.Addr()
	}
	return addrs
}

func (p *streamPanel) streamConfig(addrs map[string]string) StreamConfig {
	return StreamConfig{
		PM:        p.pm,
		Monitors:  addrs,
		SourceOf:  p.sourceOf,
		Watermark: 3 * time.Second,
		Timeouts:  Timeouts{Dial: 2 * time.Second, Exchange: 2 * time.Second},
		Seed:      2014,
	}
}

func (p *streamPanel) wantMeasurements(epoch int, selected []int) []Measurement {
	out := make([]Measurement, 0, len(selected))
	for _, path := range selected {
		links := make([]int, len(p.pm.EdgesOf(path)))
		copy(links, p.pm.EdgesOf(path))
		v, ok := p.oracle.Measure(epoch, links)
		m := Measurement{PathID: path, OK: ok}
		if ok {
			m.Value = v
		}
		out = append(out, m)
	}
	return out
}

// TestStreamCollectHealthy runs several epochs through the streaming plane
// and checks the assembled measurements are exact and complete: every
// value, OK flag and float bit pattern the EpochOracle defines, on a
// schedule where links fail in some epochs and not in others.
func TestStreamCollectHealthy(t *testing.T) {
	panel := buildStreamPanel(t, 4, 8)
	schedule := make([]failure.Scenario, 4)
	for e := range schedule {
		schedule[e] = failure.Scenario{Failed: make([]bool, len(panel.metrics))}
	}
	schedule[1].Failed[3] = true
	for _, l := range []int{0, 9, 17, 31} {
		schedule[3].Failed[l] = true
	}
	oracle, err := NewEpochOracle(panel.metrics, schedule)
	if err != nil {
		t.Fatal(err)
	}
	panel.oracle = oracle
	addrs := panel.startMonitors(t)
	reg := obs.New()
	cfg := panel.streamConfig(addrs)
	cfg.Observer = reg
	cfg.Shards = 2
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	failedPaths := 0
	for epoch := 0; epoch < 5; epoch++ {
		out, err := s.CollectAssembled(context.Background(), epoch, panel.all)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		for _, m := range out.Measurements {
			if !m.OK {
				failedPaths++
			}
		}
		if len(out.Missing) != 0 || len(out.Late) != 0 {
			t.Fatalf("epoch %d: missing=%v late=%v on a healthy panel", epoch, out.Missing, out.Late)
		}
		if want := panel.wantMeasurements(epoch, panel.all); !reflect.DeepEqual(out.Measurements, want) {
			t.Fatalf("epoch %d measurements:\n got %+v\nwant %+v", epoch, out.Measurements, want)
		}
	}
	if failedPaths != 5 {
		t.Fatalf("%d failed-path measurements, want the schedule's 5", failedPaths)
	}
	for name, st := range s.BreakerStates() {
		if st != BreakerClosed {
			t.Fatalf("healthy run left breaker %s in %v", name, st)
		}
	}
}

// TestStreamMatchesLegacyNOC pins CollectEpoch to the contract of the
// per-line NOC the stream plane replaced, which the facade and the
// examples still rely on: whatever order paths are selected in,
// an epoch returns exactly one per-path oracle answer for each selected
// path, failed links included, sorted by path ID.
func TestStreamMatchesLegacyNOC(t *testing.T) {
	panel := buildStreamPanel(t, 3, 5)
	schedule := make([]failure.Scenario, 3)
	for e := range schedule {
		schedule[e] = failure.Scenario{Failed: make([]bool, len(panel.metrics))}
	}
	schedule[1].Failed[12] = true
	schedule[2].Failed[0] = true
	schedule[2].Failed[7] = true
	oracle, err := NewEpochOracle(panel.metrics, schedule)
	if err != nil {
		t.Fatal(err)
	}
	panel.oracle = oracle
	s, err := NewStreamNOC(panel.streamConfig(panel.startMonitors(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	selections := [][]int{
		{14, 3, 9, 0, 12, 5, 7},
		{12, 11, 10, 4, 2},
		{7, 0, 13, 8, 1, 6},
	}
	for epoch, selected := range selections {
		got, err := s.CollectEpoch(context.Background(), epoch, selected)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		sorted := append([]int(nil), selected...)
		sort.Ints(sorted)
		if want := panel.wantMeasurements(epoch, sorted); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: stream diverges from the per-path answers:\n got %+v\nwant %+v", epoch, got, want)
		}
	}
}

// TestStreamJSONEncoding drives the plane with the JSON fallback codec.
func TestStreamJSONEncoding(t *testing.T) {
	panel := buildStreamPanel(t, 2, 4)
	addrs := panel.startMonitors(t)
	cfg := panel.streamConfig(addrs)
	cfg.Encoding = EncodingJSON
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.CollectAssembled(context.Background(), 0, panel.all)
	if err != nil {
		t.Fatal(err)
	}
	if want := panel.wantMeasurements(0, panel.all); !reflect.DeepEqual(out.Measurements, want) {
		t.Fatalf("JSON-encoded collection:\n got %+v\nwant %+v", out.Measurements, want)
	}
}

// TestStreamMuxedSessions points many logical monitor sessions at a single
// Monitor server and a small SessionsPerConn: all sessions collect, and
// the server sees roughly sessions/SessionsPerConn connections rather than
// one per session.
func TestStreamMuxedSessions(t *testing.T) {
	const sessions = 24
	panel := buildStreamPanel(t, sessions, 2)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	mon, err := StartMonitorOn("hub", cl, panel.oracle)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	addrs := map[string]string{}
	for _, name := range panel.names {
		addrs[name] = mon.Addr() // every session shares one server
	}
	cfg := panel.streamConfig(addrs)
	cfg.Shards = 2
	cfg.SessionsPerConn = 8
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	out, err := s.CollectAssembled(context.Background(), 0, panel.all)
	if err != nil {
		t.Fatal(err)
	}
	if want := panel.wantMeasurements(0, panel.all); !reflect.DeepEqual(out.Measurements, want) {
		t.Fatalf("muxed collection:\n got %+v\nwant %+v", out.Measurements, want)
	}
	// 24 sessions over 2 shards at 8 sessions/conn can need at most 4
	// conns (ceil per shard); the point is it is far below one per session.
	if got := cl.count(); got > 6 {
		t.Fatalf("%d sessions used %d connections; multiplexing is not happening", sessions, got)
	}
}

type countingListener struct {
	net.Listener
	mu sync.Mutex
	n  int
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.n++
		l.mu.Unlock()
	}
	return c, err
}

func (l *countingListener) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TestStreamDeadMonitorDegrades kills one monitor: its paths degrade the
// epoch with ErrMonitorUnreachable, the rest still collect, and after
// enough failures the dead session's breaker opens.
func TestStreamDeadMonitorDegrades(t *testing.T) {
	panel := buildStreamPanel(t, 3, 4)
	addrs := panel.startMonitors(t)

	// Replace m1's address with a dead one (listener closed immediately).
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	addrs["m1"] = deadAddr

	cfg := panel.streamConfig(addrs)
	cfg.Retry = RetryPolicy{MaxAttempts: 2}
	cfg.Breaker = BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour}
	cfg.Timeouts = Timeouts{Dial: 200 * time.Millisecond, Exchange: time.Second}
	cfg.Watermark = 2 * time.Second
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var lastErr error
	for epoch := 0; epoch < 3; epoch++ {
		out, err := s.CollectAssembled(context.Background(), epoch, panel.all)
		if err == nil {
			t.Fatalf("epoch %d: expected a degraded epoch", epoch)
		}
		lastErr = err
		var cerr *CollectionError
		if !errors.As(err, &cerr) {
			t.Fatalf("epoch %d: error is %T, want *CollectionError", epoch, err)
		}
		if got := cerr.FailedMonitors(); len(got) != 1 || got[0] != "m1" {
			t.Fatalf("epoch %d: failed monitors %v, want [m1]", epoch, got)
		}
		// Early epochs exhaust the retry budget (ErrMonitorUnreachable);
		// once the breaker trips the outcome becomes ErrCircuitOpen.
		if !errors.Is(err, ErrMonitorUnreachable) && !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("epoch %d: error wraps neither sentinel: %v", epoch, err)
		}
		// Live monitors still delivered their share.
		live := []int{}
		for _, p := range panel.all {
			if panel.sourceOf(p) != "m1" {
				live = append(live, p)
			}
		}
		if want := panel.wantMeasurements(epoch, live); !reflect.DeepEqual(out.Measurements, want) {
			t.Fatalf("epoch %d: live measurements wrong:\n got %+v\nwant %+v", epoch, out.Measurements, want)
		}
	}
	if st := s.BreakerStates()["m1"]; st != BreakerOpen {
		t.Fatalf("dead monitor breaker = %v, want open (last err %v)", st, lastErr)
	}
	if !errors.Is(lastErr, ErrCircuitOpen) {
		t.Fatalf("post-trip epoch should report ErrCircuitOpen, got %v", lastErr)
	}
}

// TestStreamWatermarkSeal points one session at a black-hole server that
// accepts and reads but never replies: the epoch seals at the watermark
// with those paths missing and an ErrWatermark outcome.
func TestStreamWatermarkSeal(t *testing.T) {
	panel := buildStreamPanel(t, 3, 4)
	addrs := panel.startMonitors(t)

	bh, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bh.Close()
	go func() { // accept, drain, never answer
		for {
			c, err := bh.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}()
		}
	}()
	addrs["m2"] = bh.Addr().String()

	cfg := panel.streamConfig(addrs)
	cfg.Watermark = 300 * time.Millisecond
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	start := time.Now()
	out, err := s.CollectAssembled(context.Background(), 0, panel.all)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("watermark did not bound the epoch: took %v", elapsed)
	}
	var cerr *CollectionError
	if !errors.As(err, &cerr) {
		t.Fatalf("error is %T, want *CollectionError", err)
	}
	if !errors.Is(err, ErrWatermark) || !errors.Is(err, ErrMonitorUnreachable) {
		t.Fatalf("watermark outcome must wrap ErrWatermark and ErrMonitorUnreachable: %v", err)
	}
	wantMissing := []int{}
	for _, p := range panel.all {
		if panel.sourceOf(p) == "m2" {
			wantMissing = append(wantMissing, p)
		}
	}
	if !reflect.DeepEqual(out.Missing, wantMissing) {
		t.Fatalf("missing = %v, want %v", out.Missing, wantMissing)
	}
}

// TestStreamBackpressure wedges the only shard's event loop behind a dial
// that blocks, fills the one-slot queue, and checks the overflow batch is
// shed with ErrBackpressure instead of stalling the collect call.
func TestStreamBackpressure(t *testing.T) {
	panel := buildStreamPanel(t, 3, 2)
	addrs := panel.startMonitors(t)

	release := make(chan struct{})
	var once sync.Once
	blockingDial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}
	defer once.Do(func() { close(release) })

	cfg := panel.streamConfig(addrs)
	cfg.Shards = 1
	cfg.QueueDepth = 1
	cfg.Dial = blockingDial
	cfg.Retry = RetryPolicy{MaxAttempts: 1}
	cfg.Timeouts = Timeouts{Dial: 10 * time.Second, Exchange: time.Second}
	cfg.Watermark = 400 * time.Millisecond
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		once.Do(func() { close(release) })
		s.Close()
	}()

	// Three monitor batches race into a 1-deep queue behind a wedged
	// loop: at least one must be shed as backpressure.
	_, err = s.CollectAssembled(context.Background(), 0, panel.all)
	if err == nil {
		t.Fatal("expected a degraded epoch under backpressure")
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("error does not wrap ErrBackpressure: %v", err)
	}
}

// TestStreamLateFoldForward seals an epoch at a short watermark while one
// monitor's reply is delayed, then checks the straggler surfaces in the
// next epoch's Late list with its origin epoch.
func TestStreamLateFoldForward(t *testing.T) {
	panel := buildStreamPanel(t, 2, 3)
	addrs := panel.startMonitors(t)

	// m1 goes through a delaying proxy: bytes are forwarded only after the
	// hold elapses, so its epoch-0 answer arrives after the seal.
	hold := 600 * time.Millisecond
	proxy := newDelayProxy(t, addrs["m1"], hold)
	addrs["m1"] = proxy.addr()

	cfg := panel.streamConfig(addrs)
	cfg.Watermark = 200 * time.Millisecond
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	out0, err := s.CollectAssembled(context.Background(), 0, panel.all)
	if err == nil {
		t.Fatal("epoch 0 should degrade: m1's reply is delayed past the watermark")
	}
	if len(out0.Missing) == 0 {
		t.Fatalf("epoch 0 should have missing paths, got %+v", out0)
	}

	// Wait for the held reply to land, then collect epoch 1: the epoch-0
	// straggler folds in as Late.
	time.Sleep(hold)
	out1, _ := s.CollectAssembled(context.Background(), 1, panel.all)
	if len(out1.Late) == 0 {
		t.Fatalf("epoch 1 did not fold the late epoch-0 results forward: %+v", out1)
	}
	for _, lm := range out1.Late {
		if lm.Epoch != 0 {
			t.Fatalf("late measurement has origin epoch %d, want 0", lm.Epoch)
		}
		links := panel.pm.EdgesOf(lm.PathID)
		want, ok := panel.oracle.Measure(0, links)
		if lm.OK != ok || lm.Value != want {
			t.Fatalf("late measurement %+v does not match oracle (%v,%v)", lm, want, ok)
		}
	}
}

// delayProxy forwards one TCP hop, holding monitor→NOC bytes for a fixed
// delay (per read chunk) to simulate a slow straggler.
type delayProxy struct {
	ln    net.Listener
	to    string
	delay time.Duration
	done  chan struct{}
}

func newDelayProxy(t *testing.T, to string, delay time.Duration) *delayProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProxy{ln: ln, to: to, delay: delay, done: make(chan struct{})}
	go p.run()
	t.Cleanup(func() { close(p.done); ln.Close() })
	return p
}

func (p *delayProxy) addr() string { return p.ln.Addr().String() }

func (p *delayProxy) run() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.to)
		if err != nil {
			c.Close()
			continue
		}
		go proxyCopy(up, c, 0)       // NOC → monitor: immediate
		go proxyCopy(c, up, p.delay) // monitor → NOC: held
	}
}

func proxyCopy(dst, src net.Conn, delay time.Duration) {
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if delay > 0 {
				time.Sleep(delay)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestStreamWiringBugs: out-of-range paths and unknown monitors fail the
// epoch outright with the wiring-bug sentinels.
func TestStreamWiringBugs(t *testing.T) {
	panel := buildStreamPanel(t, 2, 2)
	addrs := panel.startMonitors(t)
	s, err := NewStreamNOC(panel.streamConfig(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.CollectAssembled(context.Background(), 0, []int{panel.pm.NumPaths()}); !errors.Is(err, ErrPathOutOfRange) {
		t.Fatalf("out-of-range path: %v", err)
	}
	bad := *panel
	badCfg := panel.streamConfig(addrs)
	badCfg.SourceOf = func(int) string { return "nobody" }
	s2, err := NewStreamNOC(badCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.CollectAssembled(context.Background(), 0, bad.all[:1]); !errors.Is(err, ErrUnknownMonitor) {
		t.Fatalf("unknown monitor: %v", err)
	}
}

// TestStreamCloseFailsPending: Close while an epoch is queued ends the
// collect promptly instead of hanging on the watermark.
func TestStreamCloseFailsPending(t *testing.T) {
	panel := buildStreamPanel(t, 1, 2)
	addrs := panel.startMonitors(t)
	cfg := panel.streamConfig(addrs)
	cfg.Watermark = time.Hour
	// A dial that never completes, so the epoch would wait out the
	// watermark if Close did not cut it short.
	cfg.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cfg.Timeouts = Timeouts{Dial: time.Hour, Exchange: time.Hour}
	s, err := NewStreamNOC(cfg)
	if err != nil {
		t.Fatal(err)
	}

	doneCh := make(chan error, 1)
	go func() {
		_, err := s.CollectAssembled(context.Background(), 0, panel.all)
		doneCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	go s.Close()
	select {
	case err := <-doneCh:
		if err == nil {
			t.Fatal("collect during close should not report a clean epoch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CollectAssembled hung across Close")
	}
}
