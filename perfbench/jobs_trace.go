package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"robusttomo/internal/service"
)

// serviceSample is how many cold specs the traced run replays through an
// in-process service to split queue wait from run time.
const serviceSample = 12

// jobLayerMetrics sets the per-layer metrics of an HTTP workload from the
// traced phase: the client's own spans, then a replay of a sample of ops
// through the layers' public functions. Each replay must reproduce the
// bytes the daemon returned for that op.
func jobLayerMetrics(ctx context.Context, rep *report, tr *tracer, ops []jobOp, runs []jobRun) error {
	var kb, polls []float64
	var ok []int
	for i, run := range runs {
		kb = append(kb, float64(len(ops[i].body))/1024)
		polls = append(polls, float64(run.polls))
		if run.result != nil {
			ok = append(ok, i)
		}
	}
	rep.set("api.request_kb", "KB", median(kb))
	rep.set("api.polls_per_op", "count", mean(polls))
	rep.set("api.poll_slack_ms", "ms", float64(pollEvery)/1e6)

	sample := spread(ok, replaySample)
	var gain, specu, classes []float64
	for _, i := range sample {
		op, run := ops[i], runs[i]
		parent := tr.begin("replay", 0, i)
		spec, err := replayIntake(tr, parent, i, op.body)
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		if op.forwarded {
			if err := replayForward(tr, parent, i, spec); err != nil {
				return fmt.Errorf("replay op %d: %w", i, err)
			}
		}
		var res any
		if op.ref == i {
			r, c, err := replayRun(tr, parent, i, spec)
			if err != nil {
				return fmt.Errorf("replay op %d: %w", i, err)
			}
			res = r
			if c.selection {
				gain = append(gain, float64(c.gain))
				specu = append(specu, float64(c.specu))
				if c.classes > 0 {
					classes = append(classes, float64(c.classes))
				}
			}
		} else if res, err = resultValue(spec, run.result); err != nil {
			return fmt.Errorf("replay op %d: decode result: %w", i, err)
		}
		sp := tr.begin("api.encode", parent, i)
		out, err := encodeResult(res)
		tr.end(sp)
		tr.end(parent)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, run.result) {
			rep.mismatch(i, fmt.Errorf("replayed result differs from the job's result"))
		}
	}

	self := tr.selfMS()
	for _, l := range []struct{ metric, span string }{
		{"api.decode_ms", "api.decode"},
		{"api.encode_ms", "api.encode"},
		{"engine.normalize_ms", "engine.normalize"},
		{"engine.key_ms", "engine.key"},
		{"tomo.pathmatrix_ms", "tomo.pathmatrix"},
		{"failure.panel_ms", "failure.panel"},
		{"selection.greedy_ms", "selection.greedy"},
		{"loss.fold_ms", "loss.fold"},
		{"loss.solve_ms", "loss.solve"},
	} {
		rep.setLayer(tr, self, l.metric, l.span)
	}
	// The oracle build draws its own panel inside NewMonteCarloInc; its
	// layer time is the build minus the separately timed panel.
	if build := tr.perOp(self, "er.oracle_build"); len(build) > 0 {
		panel := tr.perOp(self, "failure.panel")
		var own []float64
		for op, ms := range build {
			own = append(own, ms-panel[op])
		}
		rep.set("er.oracle_build_ms", "ms", median(own))
	}
	if len(gain) > 0 {
		rep.set("selection.gain_evals", "count", median(gain))
		rep.set("selection.speculative_evals", "count", median(specu))
		g, s := sum(gain), sum(specu)
		rep.set("selection.useful_eval_ratio", "ratio", g/(g+s))
	}
	if len(classes) > 0 {
		rep.set("er.classes", "count", median(classes))
	}
	rep.set("unaccounted_ms", "ms", median(tr.unaccounted(self, "op", jobLayers)))
	return serviceLayers(ctx, rep, tr, ops, sample)
}

// serviceLayers submits sampled cold specs one at a time to an in-process
// service and splits each job's time at the service's BeforeRun hook:
// submit → hook is queue wait (resolve and hand-off included), hook →
// done is the run.
func serviceLayers(ctx context.Context, rep *report, tr *tracer, ops []jobOp, sample []int) error {
	var hook atomic.Int64
	svc := service.New(service.Config{BeforeRun: func(service.JobSpec) { hook.Store(time.Now().UnixNano()) }})
	defer func() {
		_ = svc.Close(ctx) // no job is left running
	}()
	var waits, runs []float64
	for _, i := range sample {
		if ops[i].ref != i || len(waits) == serviceSample {
			continue
		}
		spec, err := decodeSpec(ops[i].body)
		if err != nil {
			return err
		}
		t0 := time.Now()
		out, err := svc.Submit(spec)
		if err != nil {
			return fmt.Errorf("in-process submit: %w", err)
		}
		st, err := svc.Wait(ctx, out.ID)
		if err != nil {
			return fmt.Errorf("in-process wait: %w", err)
		}
		t1 := time.Now()
		if st.State != service.StateDone {
			return fmt.Errorf("in-process job %s: %s", st.State, st.Error)
		}
		h := time.Unix(0, hook.Load())
		tr.record("service.queue_wait", 0, i, t0, h)
		tr.record("service.run", 0, i, h, t1)
		waits = append(waits, float64(h.Sub(t0))/1e6)
		runs = append(runs, float64(t1.Sub(h))/1e6)
	}
	if len(waits) > 0 {
		rep.set("service.queue_wait_ms", "ms", median(waits))
		rep.set("service.run_ms", "ms", median(runs))
	}
	return nil
}

// spread picks at most n elements of xs, evenly spaced.
func spread(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	out := make([]int, n)
	for k := range out {
		out[k] = xs[k*len(xs)/n]
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
