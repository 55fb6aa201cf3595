package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"robusttomo/internal/engine"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
)

// apiSpec is a valid wire-format job body; vary n to vary the cache key.
func apiSpec(n int) service.JobSpec {
	return service.JobSpec{
		Links:     6,
		Paths:     [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {0, 1, 2}, {3, 4, 5}},
		Probs:     []float64{0.1, 0.05, 0.2, 0.1, 0.15, 0.08},
		Budget:    4 + float64(n)*0.125,
		Algorithm: service.AlgProbRoMe,
	}
}

// startAPIServer boots an in-process daemon with the job-service knobs
// set and returns its base URL plus a shutdown func.
func startAPIServer(t *testing.T, mutate func(*serveConfig)) (string, *server, func()) {
	t.Helper()
	cfg := testServeConfig()
	cfg.KillEpoch = -1
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
	return "http://" + s.Addr(), s, stop
}

// doJSON performs a request with an optional JSON body and decodes the
// JSON response into out (when non-nil).
func doJSON(t *testing.T, method, url string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: response not JSON (%v): %s", method, url, err, raw)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitJobState polls the status endpoint until the job reaches state.
func waitJobState(t *testing.T, base, id string, state service.JobState) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st service.JobStatus
		code, _ := doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+id, nil, &st)
		if code == http.StatusOK && st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: code %d, state %s (want %s)", id, code, st.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAPIJobLifecycle drives the happy path over real HTTP: submit →
// poll status → fetch result → cache hit on resubmission → stats.
func TestAPIJobLifecycle(t *testing.T) {
	base, _, stop := startAPIServer(t, nil)
	defer stop()

	var out service.SubmitOutcome
	code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(0), &out)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	if out.ID == "" || out.Cached {
		t.Fatalf("submit outcome %+v", out)
	}

	waitJobState(t, base, out.ID, service.StateDone)

	var res selection.Result
	code, _ = doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+out.ID+"/result", nil, &res)
	if code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if len(res.Selected) == 0 {
		t.Fatalf("empty result %+v", res)
	}

	// Resubmission is answered from the cache with 200, and the result
	// matches the original bit for bit.
	var hit service.SubmitOutcome
	code, _ = doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(0), &hit)
	if code != http.StatusOK || !hit.Cached || hit.ID != out.ID {
		t.Fatalf("cache resubmission: code %d, outcome %+v", code, hit)
	}
	var res2 selection.Result
	doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+hit.ID+"/result", nil, &res2)
	if fmt.Sprintf("%+v", res2) != fmt.Sprintf("%+v", res) {
		t.Fatalf("cached result differs:\n%+v\n%+v", res2, res)
	}

	var stats service.Stats
	code, _ = doJSON(t, http.MethodGet, base+"/api/v1/stats", nil, &stats)
	if code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if stats.Submitted != 2 || stats.Executed != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats %+v: want 2 submitted, 1 executed, 1 cache hit", stats)
	}
}

// TestAPIValidationAndLookupErrors covers the 4xx surface: malformed
// JSON, an invalid spec, unknown fields, unknown job IDs, and a result
// fetch on an in-flight job.
func TestAPIValidationAndLookupErrors(t *testing.T) {
	release := make(chan struct{})
	base, _, stop := startAPIServer(t, func(cfg *serveConfig) {
		cfg.Workers = 1
		cfg.beforeRun = func(service.JobSpec) { <-release }
	})
	defer stop()
	defer close(release)

	// Malformed body.
	req, _ := http.NewRequest(http.MethodPost, base+"/api/v1/jobs", bytes.NewReader([]byte("{not json")))
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body returned %d", resp.StatusCode)
	}

	// Unknown field (schema drift protection).
	var apiErr apiError
	code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs",
		map[string]any{"links": 2, "bogus_field": 1}, &apiErr)
	if code != http.StatusBadRequest || apiErr.Error == "" {
		t.Fatalf("unknown field: code %d, err %+v", code, apiErr)
	}

	// Invalid spec (probability out of range).
	bad := apiSpec(0)
	bad.Probs[0] = 2
	code, _ = doJSON(t, http.MethodPost, base+"/api/v1/jobs", bad, &apiErr)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid spec returned %d", code)
	}

	// Unknown job ID on every lookup verb.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/api/v1/jobs/deadbeef"},
		{http.MethodGet, "/api/v1/jobs/deadbeef/result"},
		{http.MethodDelete, "/api/v1/jobs/deadbeef"},
	} {
		if code, _ := doJSON(t, probe.method, base+probe.path, nil, &apiErr); code != http.StatusNotFound {
			t.Fatalf("%s %s returned %d, want 404", probe.method, probe.path, code)
		}
	}

	// Result of an in-flight job: 409 with the state in the error.
	var out service.SubmitOutcome
	doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(0), &out)
	code, _ = doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+out.ID+"/result", nil, &apiErr)
	if code != http.StatusConflict {
		t.Fatalf("in-flight result returned %d, want 409", code)
	}
}

// TestAPIShedRoundTrip overloads the queue over HTTP and asserts the
// 429 + Retry-After contract, then retries after the drain.
func TestAPIShedRoundTrip(t *testing.T) {
	release := make(chan struct{})
	base, _, stop := startAPIServer(t, func(cfg *serveConfig) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.RetryAfter = 2 * time.Second
		cfg.beforeRun = func(service.JobSpec) { <-release }
	})
	defer stop()

	var blocker, queued service.SubmitOutcome
	if code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(0), &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker submit returned %d", code)
	}
	// The blocker may sit queued for a moment before a worker picks it
	// up; the queue admits exactly one more either way.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(1), &queued)
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second submit never accepted (last code %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The queue is full: the next distinct job must be shed.
	var apiErr apiError
	var hdr http.Header
	var code int
	deadline = time.Now().Add(5 * time.Second)
	for {
		code, hdr = doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(2), &apiErr)
		if code == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overloaded submit returned %d, want 429", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra != 2 {
		t.Fatalf("Retry-After header %q, want 2 seconds", hdr.Get("Retry-After"))
	}

	// Drain, then the shed spec goes through.
	close(release)
	waitJobState(t, base, blocker.ID, service.StateDone)
	waitJobState(t, base, queued.ID, service.StateDone)
	var retry service.SubmitOutcome
	if code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(2), &retry); code != http.StatusAccepted {
		t.Fatalf("retry after drain returned %d", code)
	}
	waitJobState(t, base, retry.ID, service.StateDone)
}

// TestAPICancel cancels a queued job over HTTP (DELETE) and confirms the
// canceled terminal state.
func TestAPICancel(t *testing.T) {
	release := make(chan struct{})
	base, _, stop := startAPIServer(t, func(cfg *serveConfig) {
		cfg.Workers = 1
		cfg.beforeRun = func(service.JobSpec) { <-release }
	})
	defer stop()

	var blocker, victim service.SubmitOutcome
	doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(0), &blocker)
	doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(1), &victim)
	waitJobState(t, base, blocker.ID, service.StateRunning)

	var st service.JobStatus
	code, _ := doJSON(t, http.MethodDelete, base+"/api/v1/jobs/"+victim.ID, nil, &st)
	if code != http.StatusOK || st.State != service.StateCanceled {
		t.Fatalf("cancel: code %d, state %s", code, st.State)
	}
	close(release)
	waitJobState(t, base, blocker.ID, service.StateDone)
}

// TestAPIDrainOnShutdown delivers the shutdown while a job is running
// and asserts Run drains it: the daemon exits cleanly only after the
// running job reaches Done.
func TestAPIDrainOnShutdown(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	cfg := testServeConfig()
	cfg.KillEpoch = -1
	cfg.Workers = 1
	cfg.beforeRun = func(service.JobSpec) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	var out service.SubmitOutcome
	if code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", apiSpec(0), &out); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	<-entered // the job is running and blocked

	// Shut down while the job is blocked; release it shortly after so
	// the drain completes inside its 5s window.
	cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	// The drained job completed rather than being cut.
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	st, err := s.svc.Wait(wctx, out.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job state %s after graceful shutdown, want done", st.State)
	}
}

// engineSamples maps every registered engine to a valid sample job body.
// TestAPIEngineMatrix fails when a registered engine has no sample here,
// so adding an engine forces its HTTP round trip into the matrix.
func engineSamples() map[string]service.JobSpec {
	return map[string]service.JobSpec{
		"selection": {
			Engine: "selection",
			Links:  4,
			Paths:  [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
			Probs:  []float64{0.1, 0.05, 0.2, 0.1},
			Budget: 3,
		},
		"loss": {
			Engine: "loss",
			Params: json.RawMessage(`{"parents":[-1,0,0],"probes":[[1,1],[1,0],[1,1],[0,1],[1,1],[1,1],[0,0],[1,1]]}`),
		},
	}
}

// TestAPIEngineMatrix drives every registered engine through the same
// POST /api/v1/jobs → status → result round trip: the HTTP surface is
// engine-agnostic, so each row differs only in the submitted body.
func TestAPIEngineMatrix(t *testing.T) {
	base, _, stop := startAPIServer(t, nil)
	defer stop()

	samples := engineSamples()
	for _, name := range engine.Engines() {
		spec, ok := samples[name]
		if !ok {
			t.Fatalf("registered engine %q has no sample spec in engineSamples", name)
		}
		t.Run(name, func(t *testing.T) {
			var out service.SubmitOutcome
			code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", spec, &out)
			if code != http.StatusAccepted {
				t.Fatalf("submit returned %d, want 202", code)
			}
			st := waitJobState(t, base, out.ID, service.StateDone)
			if st.Engine != name {
				t.Fatalf("status engine %q, want %q", st.Engine, name)
			}
			var res map[string]any
			if code, _ := doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+out.ID+"/result", nil, &res); code != http.StatusOK {
				t.Fatalf("result returned %d", code)
			}
			if len(res) == 0 {
				t.Fatal("empty result body")
			}
			// The same body resubmitted is a cache hit on the same ID.
			var hit service.SubmitOutcome
			if code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", spec, &hit); code != http.StatusOK || !hit.Cached || hit.ID != out.ID {
				t.Fatalf("resubmission: code %d, outcome %+v", code, hit)
			}
		})
	}
}

// TestAPIUnknownEngineLists400: naming an unregistered engine is a 400
// whose body tells the client what the server actually serves.
func TestAPIUnknownEngineLists400(t *testing.T) {
	base, _, stop := startAPIServer(t, nil)
	defer stop()

	var apiErr struct {
		Error string `json:"error"`
	}
	code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs",
		service.JobSpec{Engine: "warp-drive"}, &apiErr)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown engine returned %d, want 400", code)
	}
	for _, want := range append([]string{"warp-drive"}, engine.Engines()...) {
		if !strings.Contains(apiErr.Error, want) {
			t.Fatalf("400 body %q does not mention %q", apiErr.Error, want)
		}
	}
}

// TestAPIScenarioLinksBounded posts two selection jobs the daemon must
// refuse with a 400 naming the limit before it allocates: 74-byte params
// naming 20 million scenario links (MaxLinks), and a 40 KB body of 10,000
// one-link paths over a 65,536-link source, whose path matrix alone would
// take 5.2 GB (MaxPathCells).
func TestAPIScenarioLinksBounded(t *testing.T) {
	base, _, stop := startAPIServer(t, nil)
	defer stop()

	paths := make([][]int, 10000)
	for i := range paths {
		paths[i] = []int{i % 4}
	}
	for _, tc := range []struct {
		params string
		paths  [][]int
		limit  int
	}{
		{`{"scenario":{"source":"bernoulli","links":20000000,"expected_failures":2}}`, nil, selection.MaxLinks},
		{`{"scenario":{"source":"bernoulli","links":65536,"expected_failures":2}}`, paths, selection.MaxPathCells},
	} {
		var apiErr apiError
		code, _ := doJSON(t, http.MethodPost, base+"/api/v1/jobs", service.JobSpec{
			Engine: selection.EngineName,
			Params: json.RawMessage(tc.params),
			Paths:  tc.paths,
		}, &apiErr)
		if code != http.StatusBadRequest {
			t.Fatalf("%s with %d paths returned %d, want 400", tc.params, len(tc.paths), code)
		}
		if want := strconv.Itoa(tc.limit); !strings.Contains(apiErr.Error, want) {
			t.Fatalf("400 body %q does not name the limit %s", apiErr.Error, want)
		}
	}
}
