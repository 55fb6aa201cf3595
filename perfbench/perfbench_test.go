package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"robusttomo/internal/agent"
	"robusttomo/internal/topo"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // -1: refused
	}{
		{99, 0.9, -1}, // 9 samples beyond p90
		{100, 0.9, 89},
		{19, 0.5, -1}, // 9 samples beyond p50
		{20, 0.5, 9},
		{5, 0.5, -1},
	} {
		got, err := percentile(xs[:c.n], c.q)
		switch {
		case c.want < 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want refused", 100*c.q, c.n, got)
		case c.want >= 0 && err != nil:
			t.Errorf("p%g of %d samples refused: %v", 100*c.q, c.n, err)
		case c.want >= 0 && got != c.want:
			t.Errorf("p%g of %d samples = %v, want %v", 100*c.q, c.n, got, c.want)
		}
	}
}

// digest renders everything an op stream hands the daemons and the
// router: bodies, classes and routing choices.
func digest(ops []jobOp) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&b, "%s %d %d %v\n", op.class, op.ref, op.alt, op.toOwner)
		b.Write(op.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameSpecStream(t *testing.T) {
	as1755, err := paperInstance(topo.AS1755, 400)
	if err != nil {
		t.Fatal(err)
	}
	as3257, err := paperInstance(topo.AS3257, 1600)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]func(seed uint64) []byte{
		"monterome-as1755": func(seed uint64) []byte {
			return digest(monteRoMeStream(newRNG(seed, streamOps), newSelBase(as1755), 40))
		},
		"ring-mixed": func(seed uint64) []byte {
			lg := newLossGen(newRNG(seed, streamLoss))
			return digest(ringStream(newRNG(seed, streamOps), newSelBase(as3257), lg, 40))
		},
		"collect-epoch": func(seed uint64) []byte {
			p, err := newCollectPanel(seed)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(fmt.Sprint(p.oracle.seed, p.oracle.metrics, p.links))
		},
	}
	for name, gen := range streams {
		a, b, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input streams", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", name)
		}
	}
}

// tinyProbRoMe is a small selection job body.
const tinyProbRoMe = `{"links":3,"paths":[[0],[1],[0,1],[2],[1,2]],"probs":[0.1,0.2,0.05],"costs":[1,1,2,1,2],"budget":3,"algorithm":"probrome"}`

func TestCheckerFlagsTamperedResult(t *testing.T) {
	ctx := context.Background()
	lossBody := newLossGen(newRNG(1, streamLoss)).body()
	for name, body := range map[string][]byte{"probrome": []byte(tinyProbRoMe), "loss": lossBody} {
		want, err := reference(ctx, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		good := jobRun{id: want.key, result: append([]byte(nil), want.result...)}
		if err := checkJob(good, want); err != nil {
			t.Fatalf("%s: untampered result flagged: %v", name, err)
		}
		bad := good
		bad.result = append([]byte(nil), good.result...)
		bad.result[len(bad.result)/2] ^= 1
		if checkJob(bad, want) == nil {
			t.Errorf("%s: tampered result passed the check", name)
		}
		if checkJob(jobRun{id: "x" + want.key[1:], result: good.result}, want) == nil {
			t.Errorf("%s: wrong job ID passed the check", name)
		}

		// A repeat whose node returned other bytes than the cold op's
		// node fails, even though each matches a reference on its own.
		ops := []jobOp{{class: name, body: body, ref: 0}, {class: classRepeat, body: body, ref: 0, node: 1}}
		rep := newReport()
		if err := verifyJobs(ctx, rep, ops, []jobRun{good, good}); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("%s: untampered runs flagged: %v", name, rep.notes)
		}
		rep = newReport()
		if err := verifyJobs(ctx, rep, ops, []jobRun{good, bad}); err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s: tampered repeat: correct=%v failed=%d, want false, 1", name, rep.Correct, rep.Failed)
		}
	}
}

func TestCheckEpochFlagsTamperedMeasurement(t *testing.T) {
	o := &linkOracle{seed: 3, metrics: []float64{1, 2, 3}, probs: []float64{0.3, 0.3, 0.3}}
	links := [][]int{{0}, {0, 1}, {1, 2}, {2}}
	const epoch = 5
	out := agent.AssembledEpoch{Epoch: epoch}
	for p, ls := range links {
		v, ok := o.Measure(epoch, ls)
		out.Measurements = append(out.Measurements, agent.Measurement{PathID: p, OK: ok, Value: v})
	}
	if err := checkEpoch(out, epoch, links, o); err != nil {
		t.Fatalf("untampered epoch flagged: %v", err)
	}
	tamper := []func(e *agent.AssembledEpoch){
		func(e *agent.AssembledEpoch) { e.Measurements[1].Value += 1e-9 },
		func(e *agent.AssembledEpoch) { e.Measurements[2].OK = !e.Measurements[2].OK },
		func(e *agent.AssembledEpoch) { e.Measurements = e.Measurements[:3] },
		func(e *agent.AssembledEpoch) { e.Missing = []int{3} },
	}
	for i, f := range tamper {
		e := out
		e.Measurements = append([]agent.Measurement(nil), out.Measurements...)
		f(&e)
		if checkEpoch(e, epoch, links, o) == nil {
			t.Errorf("tampering %d passed the check", i)
		}
	}
}

// TestRingMixKeepsPercentilesOffClassBoundaries checks the stated
// ring-mixed shares, and every prefix of a generated stream long enough
// to be a run, against the margin the run itself enforces.
func TestRingMixKeepsPercentilesOffClassBoundaries(t *testing.T) {
	qs := []float64{0.5, 0.9}
	var stated []float64
	for _, s := range ringShares {
		stated = append(stated, s)
	}
	if m := boundaryMargin(stated, qs); m < minClassMargin {
		t.Fatalf("stated shares %v put a percentile %.3f from a class boundary", ringShares, m)
	}
	cycle := map[string]float64{}
	for _, c := range ringCycle {
		cycle[c] += 1 / float64(len(ringCycle))
	}
	for c, s := range ringShares {
		if cycle[c] != s {
			t.Errorf("class %s: ringCycle gives share %v, ringShares states %v", c, cycle[c], s)
		}
	}

	tiny := selBase{links: 2, paths: [][]int{{0}, {1}}, probs: []float64{0.1, 0.1}, costs: []float64{1, 1}, budget: 1}
	for seed := uint64(1); seed <= 20; seed++ {
		ops := ringStream(newRNG(seed, streamOps), tiny, newLossGen(newRNG(seed, streamLoss)), 600)
		counts := map[string]int{}
		for n, op := range ops {
			counts[op.class]++
			if n+1 < minOps {
				continue
			}
			var shares []float64
			for _, k := range counts {
				shares = append(shares, float64(k)/float64(n+1))
			}
			if m := boundaryMargin(shares, qs); m < minClassMargin {
				t.Fatalf("seed %d: the first %d ops put a percentile %.3f from a class boundary (%v)", seed, n+1, m, counts)
			}
		}
	}
}

func TestBoundaryMarginSeesEveryOrder(t *testing.T) {
	// Shares 0.4 and 0.1 sum to p50 in one order only.
	if m := boundaryMargin([]float64{0.4, 0.5, 0.1}, []float64{0.5}); m > 1e-12 {
		t.Errorf("margin %v, want 0", m)
	}
	if m := boundaryMargin([]float64{1}, []float64{0.5, 0.9}); m < 1 {
		t.Errorf("one class: margin %v, want no boundary", m)
	}
}
