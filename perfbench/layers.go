package main

import (
	"encoding/json"
	"fmt"

	"robusttomo/internal/engine"
	"robusttomo/internal/er"
	"robusttomo/internal/failure"
	"robusttomo/internal/graph"
	"robusttomo/internal/loss"
	"robusttomo/internal/routing"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
	"robusttomo/internal/stats"
	"robusttomo/internal/tomo"
)

// perLayer lists every per-layer metric of a traced run with its unit.
// A workload that does not exercise a layer reports it as 0 and says so.
var perLayer = []struct{ name, unit string }{
	{"api.request_kb", "KB"},
	{"api.decode_ms", "ms"},
	{"api.encode_ms", "ms"},
	{"api.polls_per_op", "count"},
	{"api.poll_slack_ms", "ms"},
	{"engine.normalize_ms", "ms"},
	{"engine.key_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"cluster.forward_overhead_ms", "ms"},
	{"cluster.forward_share", "ratio"},
	{"cluster.fill_hit_ratio", "ratio"},
	{"cluster.hedge_wins", "1/op"},
	{"cluster.fallbacks", "1/op"},
	{"tomo.pathmatrix_ms", "ms"},
	{"failure.panel_ms", "ms"},
	{"er.oracle_build_ms", "ms"},
	{"er.classes", "count"},
	{"selection.greedy_ms", "ms"},
	{"selection.gain_evals", "count"},
	{"selection.speculative_evals", "count"},
	{"selection.useful_eval_ratio", "ratio"},
	{"loss.fold_ms", "ms"},
	{"loss.solve_ms", "ms"},
	{"agent.collect_ms", "ms"},
	{"agent.encode_ms", "ms"},
	{"agent.frames_per_op", "count"},
	{"agent.retries", "count"},
	{"agent.lost_paths", "count"},
	{"experiments.fig5_ms", "ms"},
	{"experiments.fig10_ms", "ms"},
	{"experiments.closedloop_ms", "ms"},
	{"sim.step_ms", "ms"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_op", "count"},
	{"unaccounted_ms", "ms"},
	{"tracing_overhead_ms", "ms"},
	{"traced_ops", "count"},
}

// finishLayers sets every per-layer metric the workload left unset to 0
// and names them, so a traced run always prints the full list.
func (r *report) finishLayers() {
	var absent []string
	for _, l := range perLayer {
		if _, ok := r.Metrics[l.name]; !ok {
			r.set(l.name, l.unit, 0)
			absent = append(absent, l.name)
		}
	}
	if len(absent) > 0 {
		r.notef("not exercised by this workload (reported as 0): %v", absent)
	}
}

// jobLayers are the replay spans whose self time counts toward an HTTP
// op's latency. failure.panel is left out: er.oracle_build draws the
// same panel again inside NewMonteCarloInc.
var jobLayers = []string{
	"api.decode", "engine.normalize", "engine.key", "cluster.spec_encode",
	"tomo.pathmatrix", "er.oracle_build", "selection.greedy", "loss.fold", "loss.solve", "api.encode",
}

// mcStream is the RNG stream the selection engine draws a MonteRoMe
// job's scenario panel from (internal/selection/engine.go). The replay
// draws the identical panel with it; should the two ever differ, the
// replay's selection no longer matches the job's and the traced run
// fails its check.
const mcStream = 0x5e1ec7

// replayCounts are counts a replay reads off the layers.
type replayCounts struct {
	selection   bool
	classes     int
	gain, specu int
}

// replayIntake replays what a daemon does with a job body it receives:
// decode it, route it to its engine and normalize it, and compute its key.
func replayIntake(tr *tracer, parent, op int, body []byte) (service.JobSpec, error) {
	sp := tr.begin("api.decode", parent, op)
	spec, err := decodeSpec(body)
	tr.end(sp)
	if err != nil {
		return spec, err
	}
	sp = tr.begin("engine.normalize", parent, op)
	job, err := normalize(spec)
	tr.end(sp)
	if err != nil {
		return spec, err
	}
	sp = tr.begin("engine.key", parent, op)
	_ = job.Key()
	tr.end(sp)
	return spec, nil
}

// replayForward replays a non-owner handing the spec to the owner: it
// encodes the spec for the peer protocol, and the owner takes it in.
func replayForward(tr *tracer, parent, op int, spec service.JobSpec) error {
	sp := tr.begin("cluster.spec_encode", parent, op)
	b, err := json.Marshal(spec)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("encode forwarded spec: %w", err)
	}
	_, err = replayIntake(tr, parent, op, b)
	return err
}

// replayRun re-runs a job through its layers' public functions, one span
// each, and returns the result.
func replayRun(tr *tracer, parent, op int, spec service.JobSpec) (engine.Result, replayCounts, error) {
	if spec.Engine == loss.EngineName {
		res, err := replayLoss(tr, parent, op, spec)
		return res, replayCounts{}, err
	}
	return replaySelection(tr, parent, op, spec)
}

// replaySelection replays path matrix → panel → oracle → greedy.
func replaySelection(tr *tracer, parent, op int, spec service.JobSpec) (engine.Result, replayCounts, error) {
	c := replayCounts{selection: true}
	sp := tr.begin("tomo.pathmatrix", parent, op)
	paths := make([]routing.Path, len(spec.Paths))
	for i, p := range spec.Paths {
		edges := make([]graph.EdgeID, len(p))
		for k, l := range p {
			edges[k] = graph.EdgeID(l)
		}
		paths[i].Edges = edges
	}
	pm, err := tomo.NewPathMatrix(paths, spec.Links)
	tr.end(sp)
	if err != nil {
		return nil, c, err
	}
	model, err := failure.FromProbabilities(spec.Probs)
	if err != nil {
		return nil, c, err
	}
	var oracle er.Incremental
	var mc *er.MonteCarloInc
	switch spec.Algorithm {
	case selection.AlgMonteRoMe:
		sp = tr.begin("failure.panel", parent, op)
		_, err = failure.SampleScenarioSet(model, stats.NewRNG(spec.Seed, mcStream), spec.MCRuns)
		tr.end(sp)
		if err != nil {
			return nil, c, err
		}
		sp = tr.begin("er.oracle_build", parent, op)
		mc = er.NewMonteCarloInc(pm, model, spec.MCRuns, stats.NewRNG(spec.Seed, mcStream))
		tr.end(sp)
		oracle = mc
	case selection.AlgProbRoMe:
		sp = tr.begin("er.oracle_build", parent, op)
		oracle = er.NewProbBoundInc(pm, model)
		tr.end(sp)
	default:
		return nil, c, fmt.Errorf("no replay for algorithm %q", spec.Algorithm)
	}
	sp = tr.begin("selection.greedy", parent, op)
	res, err := selection.RoMe(pm, spec.Costs, spec.Budget, oracle, selection.NewOptions())
	tr.end(sp)
	if err != nil {
		return nil, c, err
	}
	c.gain, c.specu = res.GainEvaluations, res.SpeculativeEvaluations
	if mc != nil {
		c.classes = mc.Classes()
	}
	return res, c, nil
}

// replayLoss replays fold (Observe over every probe) → solve (Estimate).
func replayLoss(tr *tracer, parent, op int, spec service.JobSpec) (engine.Result, error) {
	var p loss.Params
	if err := json.Unmarshal(spec.Params, &p); err != nil {
		return nil, fmt.Errorf("loss params: %w", err)
	}
	tree, err := loss.NewTree(p.Parents)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("loss.fold", parent, op)
	e := loss.NewEstimator(tree)
	delivered := make([]bool, len(tree.Leaves()))
	for _, row := range p.Probes {
		for k, v := range row {
			delivered[k] = v == 1
		}
		if err := e.Observe(delivered); err != nil {
			tr.end(sp)
			return nil, err
		}
	}
	tr.end(sp)
	sp = tr.begin("loss.solve", parent, op)
	res, err := e.Estimate()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// resultValue decodes a fetched result body into its engine's result
// type, so a repeat's replay can time encoding it.
func resultValue(spec service.JobSpec, body []byte) (any, error) {
	if spec.Engine == loss.EngineName {
		var r loss.Result
		err := json.Unmarshal(body, &r)
		return r, err
	}
	var r selection.Result
	err := json.Unmarshal(body, &r)
	return r, err
}
