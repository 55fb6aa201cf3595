package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"robusttomo/internal/service"
)

// pollEvery is the fixed status-poll interval: the client learns a job is
// done at most this long after it is.
const pollEvery = time.Millisecond

// api is the job-API client: one keep-alive connection pool shared by the
// single closed-loop client.
type api struct{ c *http.Client }

func newAPI() *api {
	return &api{c: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}}
}

func (a *api) close() { a.c.CloseIdleConnections() }

// do sends one request and returns the status code and the whole body.
func (a *api) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return resp.StatusCode, out, nil
}

// jobRun is one job as the client saw it.
type jobRun struct {
	id     string
	result []byte // the GET .../result body, byte for byte
	polls  int
	cached bool
}

// job submits body at base, polls the job's status every pollEvery until
// it is done, and fetches the result. Spans go to tr (nil: untraced).
func (a *api) job(ctx context.Context, base string, body []byte, tr *tracer, parent, op int) (jobRun, error) {
	var run jobRun
	sp := tr.begin("api.submit", parent, op)
	code, resp, err := a.do(ctx, http.MethodPost, base+"/api/v1/jobs", body)
	tr.end(sp)
	if err != nil {
		return run, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return run, fmt.Errorf("submit: HTTP %d: %s", code, clip(resp))
	}
	var out service.SubmitOutcome
	if err := json.Unmarshal(resp, &out); err != nil {
		return run, fmt.Errorf("submit: decode: %w", err)
	}
	run.id, run.cached = out.ID, out.Cached
	state := out.State
	for state != service.StateDone {
		if state.Terminal() {
			return run, fmt.Errorf("job %.12s ended %s", run.id, state)
		}
		if err := ctx.Err(); err != nil {
			return run, err
		}
		time.Sleep(pollEvery)
		sp := tr.begin("api.poll", parent, op)
		code, resp, err = a.do(ctx, http.MethodGet, base+"/api/v1/jobs/"+run.id, nil)
		tr.end(sp)
		run.polls++
		if err != nil {
			return run, fmt.Errorf("poll: %w", err)
		}
		if code != http.StatusOK {
			return run, fmt.Errorf("poll: HTTP %d: %s", code, clip(resp))
		}
		var st service.JobStatus
		if err := json.Unmarshal(resp, &st); err != nil {
			return run, fmt.Errorf("poll: decode: %w", err)
		}
		if st.State.Terminal() && st.State != service.StateDone {
			return run, fmt.Errorf("job %.12s ended %s: %s", run.id, st.State, st.Error)
		}
		state = st.State
	}
	sp = tr.begin("api.fetch", parent, op)
	code, resp, err = a.do(ctx, http.MethodGet, base+"/api/v1/jobs/"+run.id+"/result", nil)
	tr.end(sp)
	if err != nil {
		return run, fmt.Errorf("fetch: %w", err)
	}
	if code != http.StatusOK {
		return run, fmt.Errorf("fetch: HTTP %d: %s", code, clip(resp))
	}
	run.result = resp
	return run, nil
}

// stats fetches base's /api/v1/stats body decoded into v.
func (a *api) stats(ctx context.Context, base string, v any) error {
	code, resp, err := a.do(ctx, http.MethodGet, base+"/api/v1/stats", nil)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("stats: HTTP %d: %s", code, clip(resp))
	}
	if err := json.Unmarshal(resp, v); err != nil {
		return fmt.Errorf("stats: decode: %w", err)
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
