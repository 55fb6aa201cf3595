package loss

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"robusttomo/internal/engine"
	"robusttomo/internal/obs"
)

// EngineName is the registry name of the multicast loss-tomography
// engine: the JobSpec.Engine value that routes a job here.
const EngineName = "loss"

// keyDomain domain-separates loss job keys from every other engine's:
// it is the first thing hashed, and versions the canonical encoding.
const keyDomain = "loss/v1"

func init() { engine.Register(lossEngine{}) }

// Params is the loss engine's JobSpec `params` payload: the multicast
// tree and the per-probe receiver outcomes. Normalize reads this shape
// through wireParams, which decodes the probes straight into packed bits
// and accepts exactly the JSON that decodes into Params.
type Params struct {
	// Parents is the tree as a parent array: parents[k] is node k's
	// parent, with the single root marked by -1.
	Parents []int `json:"parents"`
	// Probes holds one row per multicast probe; each row has one 0/1
	// entry per receiver, in Tree.Leaves() order (ascending node ID),
	// recording whether that probe arrived.
	Probes [][]int `json:"probes"`
}

// lossEngine implements engine.Engine over the MINC multicast MLE.
type lossEngine struct{}

func (lossEngine) Name() string     { return EngineName }
func (lossEngine) ObsLabel() string { return "loss" }

// wireParams is Normalize's decode target: Params's wire shape, with
// the probes decoded straight into packed bits.
type wireParams struct {
	Parents []int       `json:"parents"`
	Probes  probeMatrix `json:"probes"`
}

// Normalize parses and validates the params payload and returns the
// canonical job. The legacy flat selection fields must be unset — a
// loss job is entirely described by its params — so a misrouted
// selection instance fails loudly instead of silently hashing dead
// fields into the key.
func (lossEngine) Normalize(spec engine.Spec) (engine.Job, error) {
	if spec.Links != 0 || len(spec.Paths) != 0 || len(spec.Probs) != 0 ||
		len(spec.Costs) != 0 || spec.Budget != 0 || spec.Algorithm != "" ||
		spec.MCRuns != 0 || spec.Seed != 0 {
		return nil, fmt.Errorf("loss: the loss engine takes its parameters from params (parents, probes); flat selection fields must be unset")
	}
	if len(spec.Params) == 0 {
		return nil, fmt.Errorf("loss: missing params (need parents and probes)")
	}
	var p wireParams
	dec := json.NewDecoder(bytes.NewReader(spec.Params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("loss: decode params: %w", err)
	}
	t, err := NewTree(p.Parents)
	if err != nil {
		return nil, err
	}
	if p.Probes.rows == 0 {
		return nil, fmt.Errorf("loss: no probes")
	}
	recv := len(t.Leaves())
	if err := p.Probes.check(recv); err != nil {
		return nil, err
	}
	return &lossJob{tree: t, words: p.Probes.stream(recv), rows: p.Probes.rows}, nil
}

// lossJob is one normalized loss-tomography job. Its probes are held
// only as the key's stream: row-major, one bit per outcome, 64 per word,
// MSB-first, with the last partial word right-aligned. Each row is as
// wide as the tree has receivers.
type lossJob struct {
	tree  *Tree
	words []uint64
	rows  int
}

// Key hashes the canonical typed form of the job — parents and probe
// bits, length-prefixed under the loss/v1 domain tag — so formatting
// differences in the submitted JSON cannot split the cache.
func (j *lossJob) Key() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(keyDomain))
	u64(uint64(len(j.tree.parents)))
	for _, p := range j.tree.parents {
		// Signed parents (-1 root) in two's complement.
		u64(uint64(int64(p)))
	}
	u64(uint64(j.rows))
	for _, w := range j.words {
		u64(w)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Detail reports the estimator kind.
func (j *lossJob) Detail() string { return "mle" }

// CostHint scales with the fold work: nodes × probes.
func (j *lossJob) CostHint() float64 {
	return float64(j.tree.NumNodes()) * float64(j.rows)
}

// Run folds every probe into a fresh estimator and solves the MLE. The
// computation is deterministic in the normalized job, which is what the
// content-addressed cache relies on.
func (j *lossJob) Run(ctx context.Context, _ *obs.Registry) (engine.Result, error) {
	e := NewEstimator(j.tree)
	delivered := make([]bool, len(j.tree.Leaves()))
	n := j.rows * len(delivered)
	for i := 0; i < j.rows; i++ {
		// The fold is cheap per probe; check for cancellation at a
		// coarse stride so huge panels stay interruptible.
		if i&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("loss: canceled: %w", err)
			}
		}
		for k := range delivered {
			p := i*len(delivered) + k
			shift := 63 - p&63
			if p>>6 == len(j.words)-1 && n%64 != 0 {
				shift -= 64 - n%64 // the right-aligned last word
			}
			delivered[k] = j.words[p>>6]>>shift&1 == 1
		}
		if err := e.Observe(delivered); err != nil {
			return nil, err
		}
	}
	res, err := e.Estimate()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SizeBytes implements engine.Result: four float64 vectors plus the
// struct header.
func (r Result) SizeBytes() int64 {
	return int64(8*(len(r.Gamma)+len(r.A)+len(r.Alpha)+len(r.Loss))) + 128
}

// Clone implements engine.Result: a deep copy detached from the cached
// original.
func (r Result) Clone() engine.Result {
	r.Gamma = append([]float64(nil), r.Gamma...)
	r.A = append([]float64(nil), r.A...)
	r.Alpha = append([]float64(nil), r.Alpha...)
	r.Loss = append([]float64(nil), r.Loss...)
	return r
}
