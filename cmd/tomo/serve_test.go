package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"robusttomo/internal/sim"
)

// testServeConfig is a fast-cycling daemon config for in-process smoke
// tests: random port, millisecond epochs, a monitor killed early and a
// hair-trigger breaker that never recovers (so /healthz stays 503 once it
// flips).
func testServeConfig() serveConfig {
	return serveConfig{
		Addr:      "127.0.0.1:0",
		Interval:  2 * time.Millisecond,
		KillEpoch: 3,
		Mode:      sim.Static,
		Retries:   1,
		Threshold: 1,
		Cooldown:  time.Hour,
		Seed:      2014,
	}
}

// get fetches a URL and returns status code and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// waitCode polls a URL until it returns the wanted status code.
func waitCode(t *testing.T, url string, want int) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, url)
		if code == want {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: code %d (want %d), body %q", url, code, want, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeSmoke boots the daemon on a random port and exercises the full
// HTTP surface: readiness, Prometheus exposition with families from every
// instrumented layer, the breaker-aware health flip after the monitor
// kill, the JSON status document, and pprof/expvar.
func TestServeSmoke(t *testing.T) {
	s, err := newServer(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	waitCode(t, base+"/readyz", http.StatusOK)

	// The kill at epoch 3 with a hair-trigger breaker flips health.
	body := waitCode(t, base+"/healthz", http.StatusServiceUnavailable)
	if !strings.Contains(body, "open breakers") {
		t.Fatalf("healthz body %q does not name the open breakers", body)
	}

	// Prometheus exposition carries families from every instrumented
	// layer, with valid TYPE lines and histogram series.
	_, metrics := get(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE tomo_agent_epochs_total counter",
		"# TYPE tomo_agent_dial_seconds histogram",
		"tomo_agent_breaker_state{monitor=",
		"# TYPE tomo_selection_runs_total counter",
		"tomo_selection_runs_total 1",
		"# TYPE tomo_sim_epochs_total counter",
		"tomo_sim_epoch_seconds_bucket{le=\"+Inf\"}",
		"tomo_agent_degraded_epochs_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition was:\n%s", metrics)
	}

	var st serveStatus
	_, statusz := get(t, base+"/statusz")
	if err := json.Unmarshal([]byte(statusz), &st); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, statusz)
	}
	if st.Mode != "static" {
		t.Errorf("statusz mode = %q", st.Mode)
	}
	if st.Epoch < 3 {
		t.Errorf("statusz epoch = %d, want ≥ 3 by now", st.Epoch)
	}
	if st.DegradedEpochs < 1 {
		t.Errorf("statusz degraded_epochs = %d, want ≥ 1 after the kill", st.DegradedEpochs)
	}
	if len(st.Monitors) == 0 {
		t.Error("statusz reports no monitors")
	}
	open := false
	for _, state := range st.Monitors {
		if state == "open" {
			open = true
		}
	}
	if !open {
		t.Errorf("statusz shows no open breaker: %v", st.Monitors)
	}
	killSeen := false
	for _, ev := range st.RecentEvents {
		if ev.Name == "serve.kill_victim" {
			killSeen = true
		}
	}
	if !killSeen {
		t.Errorf("statusz recent_events missing serve.kill_victim: %+v", st.RecentEvents)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index returned %d", code)
	}
	if code, body := get(t, base+"/debug/vars"); code != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("expvar returned %d: %.80s", code, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestServeSignalShutdown drives the real signal path: Run under a
// signal.NotifyContext, SIGTERM delivered to the process, graceful exit.
func TestServeSignalShutdown(t *testing.T) {
	cfg := testServeConfig()
	cfg.KillEpoch = -1
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	waitCode(t, base+"/readyz", http.StatusOK)
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d with all monitors alive", code)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after SIGTERM", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}
	// The listener is down: a fresh request must fail.
	c := &http.Client{Timeout: time.Second}
	if resp, err := c.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestRunServeFlags covers flag validation without booting a daemon.
func TestRunServeFlags(t *testing.T) {
	if err := runServe([]string{"-mode", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if err := runServe([]string{"-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := runServe([]string{"-backoff", "1ms"}, io.Discard); err == nil {
		t.Fatal("removed -backoff flag accepted")
	}
}
