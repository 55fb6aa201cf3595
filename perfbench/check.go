package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"robusttomo/internal/engine"
	_ "robusttomo/internal/loss" // registers the loss engine, as tomo serve does
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
)

// decodeSpec decodes a job body the way POST /api/v1/jobs does.
func decodeSpec(body []byte) (service.JobSpec, error) {
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decode job spec: %w", err)
	}
	return spec, nil
}

// engineSpec is the engine's view of a job spec, as the service hands it
// over: the legacy unset engine means the selection engine.
func engineSpec(spec service.JobSpec) (string, engine.Spec) {
	name := spec.Engine
	if name == "" {
		name = selection.EngineName
	}
	return name, engine.Spec{
		Engine: name, Params: spec.Params, Links: spec.Links, Paths: spec.Paths, Probs: spec.Probs,
		Costs: spec.Costs, Budget: spec.Budget, Algorithm: spec.Algorithm, MCRuns: spec.MCRuns, Seed: spec.Seed,
	}
}

// normalize routes spec to its engine and normalizes it.
func normalize(spec service.JobSpec) (engine.Job, error) {
	name, es := engineSpec(spec)
	eng, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	return eng.Normalize(es)
}

// encodeResult renders v as the job API renders a result: indented JSON
// and a trailing newline.
func encodeResult(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return b.Bytes(), nil
}

// expected is the in-process answer to one job body.
type expected struct {
	key    string
	result []byte
}

// reference computes the job ID and the exact result bytes the HTTP API
// must return for body: decode, Normalize, Key and Run in-process, then
// encode as the API does.
func reference(ctx context.Context, body []byte) (expected, error) {
	spec, err := decodeSpec(body)
	if err != nil {
		return expected{}, err
	}
	job, err := normalize(spec)
	if err != nil {
		return expected{}, err
	}
	res, err := job.Run(ctx, nil)
	if err != nil {
		return expected{}, fmt.Errorf("run: %w", err)
	}
	out, err := encodeResult(res)
	if err != nil {
		return expected{}, err
	}
	return expected{key: job.Key(), result: out}, nil
}

// references computes the reference of every body, on all CPUs.
func references(ctx context.Context, bodies [][]byte) ([]expected, error) {
	out := make([]expected, len(bodies))
	err := parallel(len(bodies), func(i int) error {
		e, err := reference(ctx, bodies[i])
		if err != nil {
			return fmt.Errorf("reference for op %d: %w", i, err)
		}
		out[i] = e
		return nil
	})
	return out, err
}

// checkJob compares what the API returned for one job with the
// reference; nil means bit-identical.
func checkJob(run jobRun, want expected) error {
	if run.id != want.key {
		return fmt.Errorf("job ID %.12s, want %.12s", run.id, want.key)
	}
	if !bytes.Equal(run.result, want.result) {
		return fmt.Errorf("job %.12s: result differs from the in-process run (%d vs %d bytes)", run.id, len(run.result), len(want.result))
	}
	return nil
}

// mismatch counts one op that failed its correctness check.
func (r *report) mismatch(op int, err error) {
	r.Failed++
	if r.Correct || len(r.notes) < 20 {
		r.fail("op %d: %v", op, err)
	}
}

// parallel runs fn(0..n-1) on runtime.NumCPU goroutines and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	workers := min(runtime.NumCPU(), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
