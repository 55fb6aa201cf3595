package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"robusttomo/internal/cluster"
	"robusttomo/internal/experiments"
	"robusttomo/internal/loss"
	"robusttomo/internal/selection"
	"robusttomo/internal/service"
	"robusttomo/internal/stats"
)

// RNG streams of the workload seed, one per independent input family, so
// adding draws to one family never shifts another.
const (
	streamOps uint64 = iota + 1
	streamWarm
	streamLoss
	streamOracle
	streamProbe
	streamTraced
)

// paperInstance builds the candidate-path instance of a Table I preset at
// the paper's seed (2014) and first monitor set. The instance is fixed so
// that the work per op does not move with the workload seed; the seed
// varies each op's inputs instead.
func paperInstance(preset string, paths int) (*experiments.Instance, error) {
	return experiments.BuildInstance(
		experiments.Workload{Preset: preset, CandidatePaths: paths},
		experiments.Scale{Seed: 2014, ExpectedFailures: 3}, 0)
}

// selBase is a selection instance in job-spec form.
type selBase struct {
	links  int
	paths  [][]int
	probs  []float64
	costs  []float64
	budget float64
}

// newSelBase takes the instance's paths, link failure probabilities and
// path costs, with a budget of 0.75 × the cost of a basis.
func newSelBase(in *experiments.Instance) selBase {
	n := in.PM.NumPaths()
	paths := make([][]int, n)
	order := make([]int, n)
	for i := range paths {
		paths[i] = in.PM.EdgesOf(i)
		order[i] = i
	}
	basis := 0.0
	for _, q := range in.PM.SelectBasisIndices(order) {
		basis += in.Costs[q]
	}
	return selBase{links: in.PM.NumLinks(), paths: paths, probs: in.Model.Probs(), costs: in.Costs, budget: 0.75 * basis}
}

func (b selBase) spec(alg string, probs []float64, mcRuns int, seed uint64) service.JobSpec {
	return service.JobSpec{Links: b.links, Paths: b.paths, Probs: probs, Costs: b.costs, Budget: b.budget,
		Algorithm: alg, MCRuns: mcRuns, Seed: seed}
}

// monteRoMe returns a MonteRoMe job over a 1000-scenario panel drawn
// from seed. A fresh seed per job makes every job a cache miss.
func (b selBase) monteRoMe(seed uint64) service.JobSpec {
	return b.spec(selection.AlgMonteRoMe, b.probs, 1000, seed)
}

// probRoMe returns a ProbRoMe job whose link failure probabilities are
// the instance's, each scaled by a factor in [0.99, 1.01): a distinct
// cache key per job for practically the same work.
func (b selBase) probRoMe(rng *rand.Rand) service.JobSpec {
	probs := make([]float64, len(b.probs))
	for i, p := range b.probs {
		probs[i] = p * (0.99 + 0.02*rng.Float64())
	}
	return b.spec(selection.AlgProbRoMe, probs, 0, 0)
}

// Loss jobs run the MINC estimator on the complete binary tree of depth
// lossDepth (127 nodes, 64 receivers). lossProbes is sized so that a cold
// loss op on the ring takes about as long as a cold ProbRoMe op: the
// spec's JSON decode, paid at the receiving node and again at the owner,
// dominates both.
const (
	lossDepth  = 6
	lossProbes = 700
	lossPool   = 4096
)

// lossGen draws multicast probe outcomes over the tree from per-link pass
// rates, and renders loss job bodies.
type lossGen struct {
	rng     *rand.Rand
	parents []int
	leaves  []int
	alpha   []float64 // per-node pass rate of the link into the node
	prefix  []byte    // body up to the first probe row
	pool    [][]byte  // pre-encoded probe rows
	pass    []bool
}

func newLossGen(rng *rand.Rand) *lossGen {
	tr := loss.BinaryTree(lossDepth)
	n := tr.NumNodes()
	g := &lossGen{rng: rng, parents: make([]int, n), leaves: tr.Leaves(), alpha: make([]float64, n), pass: make([]bool, n)}
	for k := range g.parents {
		g.parents[k] = tr.Parent(k)
		g.alpha[k] = 0.85 + 0.1*rng.Float64()
	}
	parents, _ := json.Marshal(g.parents) // []int always encodes
	g.prefix = append([]byte(`{"engine":"loss","params":{"parents":`), parents...)
	g.prefix = append(g.prefix, `,"probes":[`...)
	g.pool = make([][]byte, lossPool)
	for i := range g.pool {
		g.pool[i] = g.row()
	}
	return g
}

// row simulates one probe: it passes into node k iff it passed into k's
// parent and survives the link into k. Breadth-first numbering puts every
// parent before its children. The row lists the receivers' outcomes in
// ascending node order, as the loss engine expects.
func (g *lossGen) row() []byte {
	for k, p := range g.parents {
		up := p < 0 || g.pass[p]
		g.pass[k] = up && g.rng.Float64() < g.alpha[k]
	}
	b := make([]byte, 0, 2*len(g.leaves)+1)
	b = append(b, '[')
	for i, leaf := range g.leaves {
		if i > 0 {
			b = append(b, ',')
		}
		if g.pass[leaf] {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return append(b, ']')
}

// body renders a loss job: lossProbes-1 consecutive pool rows from a
// random offset, then one fresh probe, which makes every job's key
// distinct.
func (g *lossGen) body() []byte {
	var b bytes.Buffer
	b.Grow(len(g.prefix) + lossProbes*(2*len(g.leaves)+2) + 4)
	b.Write(g.prefix)
	off := g.rng.IntN(len(g.pool))
	for i := 0; i < lossProbes-1; i++ {
		b.Write(g.pool[(off+i)%len(g.pool)])
		b.WriteByte(',')
	}
	b.Write(g.row())
	b.WriteString("]}}")
	return b.Bytes()
}

// Op classes of the ring-mixed workload.
const (
	classProbRoMe = "probrome"
	classLoss     = "loss"
	classRepeat   = "repeat"
)

// ringCycle is the ring-mixed op mix, shuffled within every cycle of 8:
// three cold ProbRoMe jobs, three cold loss jobs and two repeats. Repeats
// are far faster than cold jobs, and cold ProbRoMe and loss jobs are
// similar, so the shares (0.375, 0.375, 0.25) put every class boundary at
// least 0.125 from p50 and p90, whatever order the classes' latencies
// fall in.
var ringCycle = []string{classProbRoMe, classProbRoMe, classProbRoMe, classLoss, classLoss, classLoss, classRepeat, classRepeat}

// ringShares are the class shares ringCycle produces.
var ringShares = map[string]float64{classProbRoMe: 3.0 / 8, classLoss: 3.0 / 8, classRepeat: 2.0 / 8}

// repeatWindow is how many of the latest cold ops a repeat picks from.
const repeatWindow = 16

// jobOp is one op of an HTTP workload. On the ring, which daemon
// receives it is stated by role and resolved by route once the daemons'
// addresses are known.
type jobOp struct {
	class string
	body  []byte
	spec  service.JobSpec // cold selection ops: the typed spec
	key   string          // cold ops: the job ID, computed client-side
	// ref is the cold op whose job this op submits: the op itself, or
	// the earlier op a repeat resubmits.
	ref int
	// alt picks which of the key's two non-owners receives a cold op.
	alt int
	// toOwner sends a repeat to the key's owner (a cache read) instead
	// of the node that neither owns the key nor received the cold op (a
	// forward the owner answers from its cache, then a cache fill).
	toOwner bool

	node      int  // receiving daemon, set by route
	forwarded bool // the receiving daemon does not own the key
}

// route resolves every op's receiving daemon. With one daemon all ops go
// to it; on a ring, every cold op goes to a non-owner of its key, so it
// forwards exactly once, and repeats go to a node other than the one the
// cold op went to.
func route(ops []jobOp, members []string) {
	if len(members) < 2 {
		for i := range ops {
			ops[i].node, ops[i].forwarded = 0, false
		}
		return
	}
	r := cluster.NewRing(members, 0)
	index := map[string]int{}
	for i, m := range members {
		index[m] = i
	}
	for i := range ops {
		op := &ops[i]
		cold := &ops[op.ref]
		ownerName, _ := r.Owner(cold.key, nil) // nil: every member alive
		owner := index[ownerName]
		if op.ref == i {
			var others []int
			for n := range members {
				if n != owner {
					others = append(others, n)
				}
			}
			op.node = others[op.alt%len(others)]
		} else {
			op.node = owner
			if !op.toOwner {
				// The third node: neither the owner nor the cold op's.
				for n := range members {
					if n != owner && n != cold.node {
						op.node = n
						break
					}
				}
			}
		}
		op.forwarded = op.node != owner
	}
}

// ringStream generates n ops of the ring-mixed mix; keys are left for
// keyOps.
func ringStream(rng *rand.Rand, base selBase, lg *lossGen, n int) []jobOp {
	ops := make([]jobOp, 0, n)
	var cold []int
	var cycle []string
	for len(ops) < n {
		if len(cycle) == 0 {
			cycle = append([]string(nil), ringCycle...)
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
			if len(cold) == 0 {
				// The first op of a stream has nothing to repeat yet.
				for i, c := range cycle {
					if c != classRepeat {
						cycle[0], cycle[i] = cycle[i], cycle[0]
						break
					}
				}
			}
		}
		op := jobOp{class: cycle[0], ref: len(ops)}
		cycle = cycle[1:]
		switch op.class {
		case classProbRoMe:
			op.spec = base.probRoMe(rng)
			body, err := json.Marshal(op.spec)
			if err != nil {
				panic(err) // a JobSpec of finite floats always encodes
			}
			op.body = body
			op.alt = rng.IntN(2)
		case classLoss:
			op.body = lg.body()
			op.alt = rng.IntN(2)
		case classRepeat:
			window := cold
			if len(window) > repeatWindow {
				window = window[len(window)-repeatWindow:]
			}
			op.ref = window[rng.IntN(len(window))]
			op.toOwner = rng.IntN(2) == 0
			op.body = ops[op.ref].body
		}
		if op.class != classRepeat {
			cold = append(cold, len(ops))
		}
		ops = append(ops, op)
	}
	return ops
}

// monteRoMeStream generates n cold MonteRoMe ops, each with a fresh
// scenario seed.
func monteRoMeStream(rng *rand.Rand, base selBase, n int) []jobOp {
	ops := make([]jobOp, n)
	for i := range ops {
		spec := base.monteRoMe(rng.Uint64())
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err) // a JobSpec of finite floats always encodes
		}
		ops[i] = jobOp{class: classMonteRoMe, body: body, spec: spec, ref: i}
	}
	return ops
}

// classMonteRoMe is the single op class of the monterome-as1755 workload.
const classMonteRoMe = "monterome"

// keyOps computes every cold op's job ID in parallel, as the daemons
// will: through the engine's Normalize and Key.
func keyOps(ops []jobOp) error {
	var idx []int
	for i, op := range ops {
		if op.ref == i {
			idx = append(idx, i)
		}
	}
	return parallel(len(idx), func(k int) error {
		op := &ops[idx[k]]
		spec := op.spec
		if op.class == classLoss {
			s, err := decodeSpec(op.body)
			if err != nil {
				return err
			}
			spec = s
		}
		job, err := normalize(spec)
		if err != nil {
			return fmt.Errorf("op %d: %w", idx[k], err)
		}
		op.key = job.Key()
		return nil
	})
}

// newRNG returns the workload seed's generator for one input family.
func newRNG(seed, stream uint64) *rand.Rand { return stats.NewRNG(seed, stream) }
