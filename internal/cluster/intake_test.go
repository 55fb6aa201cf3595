package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"robusttomo/internal/engine"
	"robusttomo/internal/obs"
	"robusttomo/internal/service"
)

// normalizeCalls counts countingEngine.Normalize calls process-wide.
var normalizeCalls atomic.Int64

func init() { engine.Register(countingEngine{}) }

// countingEngine is a test engine that counts its Normalize calls; its
// jobs key on their params and finish at once.
type countingEngine struct{}

func (countingEngine) Name() string     { return "counting" }
func (countingEngine) ObsLabel() string { return "counting" }

func (countingEngine) Normalize(spec engine.Spec) (engine.Job, error) {
	normalizeCalls.Add(1)
	return countingJob(spec.Params), nil
}

type countingJob string

func (j countingJob) Key() string     { return "counting/" + string(j) }
func (countingJob) Detail() string    { return "count" }
func (countingJob) CostHint() float64 { return 1 }

func (j countingJob) Run(context.Context, *obs.Registry) (engine.Result, error) {
	return countingResult{Params: string(j)}, nil
}

type countingResult struct {
	Params string `json:"params"`
}

func (r countingResult) SizeBytes() int64     { return int64(len(r.Params)) + 16 }
func (r countingResult) Clone() engine.Result { return r }

// TestOneNormalizePerNode: every node that handles a submission
// normalizes it exactly once. The owner runs an owned job after one
// Normalize; a forwarded job costs the receiving node one (for the key,
// the cache probe and the forward) and the owner one (it never trusts a
// peer's normalization); and a non-owner answering from its filled cache
// normalizes once. Each node needs at least one Normalize on its path,
// so a total of one per node means exactly one on each.
func TestOneNormalizePerNode(t *testing.T) {
	// No hedges: a hedge leg would add a node to the path.
	tc := newTestCluster(t, 3, func(_ int, cfg *Config) { cfg.HedgeAfter = time.Hour })
	spec := func(n int) service.JobSpec {
		return service.JobSpec{Engine: "counting", Params: json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))}
	}
	owned, forwarded := -1, -1
	for n := 0; n < 1000 && (owned < 0 || forwarded < 0); n++ {
		if ownerIndex(t, tc, spec(n)) == 0 {
			if owned < 0 {
				owned = n
			}
		} else if forwarded < 0 {
			forwarded = n
		}
	}
	if owned < 0 || forwarded < 0 {
		t.Fatal("no owned and forwarded specs for node 0 in 1000 tries")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	submit := func(s service.JobSpec) (service.SubmitOutcome, int64) {
		t.Helper()
		before := normalizeCalls.Load()
		out, err := tc.nodes[0].Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		st, err := tc.nodes[0].Wait(ctx, out.ID)
		if err != nil || st.State != service.StateDone {
			t.Fatalf("job %+v: state %v, err %v", out, st.State, err)
		}
		return out, normalizeCalls.Load() - before
	}

	if _, calls := submit(spec(owned)); calls != 1 {
		t.Errorf("owned path: %d Normalize calls, want 1", calls)
	}
	if _, calls := submit(spec(forwarded)); calls != 2 {
		t.Errorf("forwarded path: %d Normalize calls, want 2 (receiver and owner)", calls)
	}
	out, calls := submit(spec(forwarded))
	if !out.Cached {
		t.Fatalf("repeat at the non-owner not a cache hit: %+v", out)
	}
	if calls != 1 {
		t.Errorf("non-owner cache hit: %d Normalize calls, want 1", calls)
	}
}
