package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"robusttomo/internal/engine"
)

// Legacy v1 selection algorithm names, matching the `tomo select -alg`
// names. A v1 submission sets `algorithm` alone; legacyEngines maps it
// onto the selection engine, and the canonical job key is bit-identical
// to what the pre-registry service produced.
//
// Deprecated: new clients set JobSpec.Engine to "selection" (the
// algorithm still travels in the Algorithm field, which is that
// engine's parameter surface). These constants remain for v1 wire
// compatibility; see selection.Alg* for the engine-side names.
const (
	AlgProbRoMe   = "probrome"
	AlgMonteRoMe  = "monterome"
	AlgMatRoMe    = "matrome"
	AlgSelectPath = "selectpath"
)

// DefaultMCRuns is the Monte Carlo scenario count applied when a
// monterome job omits mc_runs.
//
// Deprecated: the default now lives with the engine; see
// selection.DefaultMCRuns.
const DefaultMCRuns = 200

// legacyEngines maps every v1 `algorithm` value (including the empty
// default) to the engine that now serves it: all four selection
// algorithms re-homed into the single "selection" engine. The table is
// the entire back-compat surface — resolve consults it only when
// `engine` is unset, and the mapped engine re-derives the same
// canonical key a v1 service computed.
var legacyEngines = map[string]string{
	"":            "selection",
	AlgProbRoMe:   "selection",
	AlgMonteRoMe:  "selection",
	AlgMatRoMe:    "selection",
	AlgSelectPath: "selection",
}

// JobSpec is one client-submitted inference query: a self-contained
// instance plus the engine that should run it. The JSON field names are
// the wire format of POST /api/v1/jobs.
//
// Two submission shapes coexist:
//
//   - v2: `engine` names a registered engine and `params` carries its
//     JSON parameter payload (the loss engine's tree and probes). The
//     selection engine is the exception — its parameters predate
//     `params` and stay in the flat fields below.
//   - v1 (legacy): `engine` is unset and `algorithm` (or its empty
//     default) picks one of the four selection algorithms; the flat
//     fields describe the instance exactly as before the engine
//     registry existed. Keys and cached results are bit-identical to
//     that era.
type JobSpec struct {
	// Engine names the registered engine to run ("selection", "loss",
	// ...); empty means the legacy algorithm mapping below.
	Engine string `json:"engine,omitempty"`
	// Params is the engine-specific JSON parameter payload (v2 engines
	// other than selection).
	Params json.RawMessage `json:"params,omitempty"`

	// Links is the number of links in the network (path matrix columns).
	Links int `json:"links,omitempty"`
	// Paths lists each candidate path's link IDs (path matrix rows).
	Paths [][]int `json:"paths,omitempty"`
	// Probs holds per-link failure probabilities in [0, 1).
	Probs []float64 `json:"probs,omitempty"`
	// Costs holds per-path probing costs; empty means unit costs.
	Costs []float64 `json:"costs,omitempty"`
	// Budget is the probing budget (for matrome: the path-count budget).
	Budget float64 `json:"budget,omitempty"`
	// Algorithm is one of probrome (default), monterome, matrome,
	// selectpath — the selection engine's algorithm parameter and the
	// whole of the v1 dispatch surface.
	Algorithm string `json:"algorithm,omitempty"`
	// MCRuns is the Monte Carlo scenario count (monterome only; default
	// selection.DefaultMCRuns).
	MCRuns int `json:"mc_runs,omitempty"`
	// Seed drives the Monte Carlo scenario stream (monterome only).
	Seed uint64 `json:"seed,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a
	// priority. It does not enter the cache key — the result does not
	// depend on it.
	Priority int `json:"priority,omitempty"`
}

// Resolved is a JobSpec routed to its engine and normalized, with its
// key: everything a node needs to place, answer or enqueue the job.
// JobSpec.Resolve is the only way to make one, so a node normalizes a
// submission once and hands the result along (DESIGN.md §16).
type Resolved struct {
	spec JobSpec
	eng  engine.Engine
	ej   engine.Job
	key  string
}

// Resolve routes the spec to its engine — by name, or through the
// legacy algorithm mapping — normalizes it into a runnable job and
// computes the job's content-addressed key. Unknown engine names fail
// with *engine.UnknownEngineError, whose message lists the registered
// engines.
func (spec JobSpec) Resolve() (*Resolved, error) {
	name := spec.Engine
	if name == "" {
		mapped, ok := legacyEngines[spec.Algorithm]
		if !ok {
			return nil, fmt.Errorf("service: unknown algorithm %q (probrome, monterome, matrome, selectpath; or set engine to one of: %s)",
				spec.Algorithm, strings.Join(engine.Engines(), ", "))
		}
		name = mapped
	}
	eng, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	j, err := eng.Normalize(engine.Spec{
		Engine:    name,
		Params:    spec.Params,
		Links:     spec.Links,
		Paths:     spec.Paths,
		Probs:     spec.Probs,
		Costs:     spec.Costs,
		Budget:    spec.Budget,
		Algorithm: spec.Algorithm,
		MCRuns:    spec.MCRuns,
		Seed:      spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Resolved{spec: spec, eng: eng, ej: j, key: j.Key()}, nil
}

// Key returns the job's content-addressed ID.
func (r *Resolved) Key() string { return r.key }

// Spec returns the spec as submitted.
func (r *Resolved) Spec() JobSpec { return r.spec }

// CanonicalKey resolves the spec through its engine and returns the
// content-addressed job ID. It fails exactly where Submit would fail
// synchronously: invalid specs and unknown engines.
func (spec JobSpec) CanonicalKey() (string, error) {
	r, err := spec.Resolve()
	if err != nil {
		return "", err
	}
	return r.Key(), nil
}

// JobState is a job's position in the lifecycle state machine
// (DESIGN.md §12): Queued → Running → Done | Failed | Canceled, with
// Queued → Canceled for jobs canceled before a worker picks them up.
type JobState int

// Job lifecycle states.
const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s >= StateDone }

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalJSON renders the state as its string name.
func (s JobState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a state name.
func (s *JobState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("service: unknown job state %q", name)
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	// ID is the job's content-addressed identifier (the cache key).
	ID string `json:"id"`
	// State is the lifecycle state at snapshot time.
	State JobState `json:"state"`
	// Engine is the registered engine that ran (or will run) the job.
	Engine string `json:"engine"`
	// Algorithm is the engine's job detail — for the selection engine
	// the normalized algorithm name, preserving the v1 status field.
	Algorithm string `json:"algorithm"`
	// Priority echoes the submission priority.
	Priority int `json:"priority"`
	// Cached reports that the result was served from the content cache
	// (or a retained completed job) without a new execution.
	Cached bool `json:"cached"`
	// Deduped counts later identical submissions that attached to this
	// job while it was in flight.
	Deduped int `json:"deduped"`
	// Error carries the failure or cancellation reason for terminal
	// non-Done states.
	Error string `json:"error,omitempty"`
}
