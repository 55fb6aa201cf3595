package loss_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"robusttomo/internal/engine"
	"robusttomo/internal/loss"
)

// refJob is the reference loss intake the packed probe decoder must
// match: encoding/json into loss.Params, the engine's checks in their
// order and with their messages, and the key's row-major stream of
// 64-outcome words (MSB-first, last partial word right-aligned).
type refJob struct {
	tree *loss.Tree
	p    loss.Params
}

func refNormalize(params []byte) (*refJob, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("loss: missing params (need parents and probes)")
	}
	var p loss.Params
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("loss: decode params: %w", err)
	}
	t, err := loss.NewTree(p.Parents)
	if err != nil {
		return nil, err
	}
	if len(p.Probes) == 0 {
		return nil, fmt.Errorf("loss: no probes")
	}
	recv := len(t.Leaves())
	for i, row := range p.Probes {
		if len(row) != recv {
			return nil, fmt.Errorf("loss: probe %d has %d outcomes, tree has %d receivers", i, len(row), recv)
		}
		for j, v := range row {
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("loss: probe %d outcome %d is %d, want 0 or 1", i, j, v)
			}
		}
	}
	return &refJob{tree: t, p: p}, nil
}

func (j *refJob) key() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("loss/v1"))
	u64(uint64(len(j.p.Parents)))
	for _, p := range j.p.Parents {
		u64(uint64(int64(p)))
	}
	u64(uint64(len(j.p.Probes)))
	var word uint64
	bits := 0
	for _, row := range j.p.Probes {
		for _, v := range row {
			word = word<<1 | uint64(v)
			if bits++; bits == 64 {
				u64(word)
				word, bits = 0, 0
			}
		}
	}
	if bits > 0 {
		u64(word)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (j *refJob) run() (loss.Result, error) {
	e := loss.NewEstimator(j.tree)
	delivered := make([]bool, len(j.tree.Leaves()))
	for _, row := range j.p.Probes {
		for k, v := range row {
			delivered[k] = v == 1
		}
		if err := e.Observe(delivered); err != nil {
			return loss.Result{}, err
		}
	}
	return e.Estimate()
}

// xorshift is a fixed pseudo-random bit source for the test bodies, so
// their bytes never depend on a library generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// partialBody is a 4-receiver, 37-probe body (148 outcomes: two full
// words and a 20-bit last word) in unusual but valid formatting: the
// probes come first under a case-folded key, zeros are spelled 0, -0 or
// null, and whitespace varies.
func partialBody() string {
	var b strings.Builder
	b.WriteString(" { \"PROBES\" : [")
	for i := 0; i < 37; i++ {
		if i > 0 {
			b.WriteString(" ,\n")
		}
		b.WriteString("[")
		for j := 0; j < 4; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			switch {
			case (i*5+j*3)%7 < 4:
				b.WriteString("1")
			case (i+j)%3 == 0:
				b.WriteString("-0")
			case (i+j)%3 == 1:
				b.WriteString("null")
			default:
				b.WriteString("0")
			}
		}
		b.WriteString("]")
	}
	b.WriteString("], \"parents\":[-1,0,0,1,1,2,2]}")
	return b.String()
}

// perfbenchBody is shaped like the benchmark's loss job: a depth-6
// binary tree (127 nodes, 64 receivers) and 700 probes, about 85% of
// outcomes delivered.
func perfbenchBody() string {
	tr := loss.BinaryTree(6)
	parents := make([]int, tr.NumNodes())
	for k := range parents {
		parents[k] = tr.Parent(k)
	}
	pj, _ := json.Marshal(parents)
	var b strings.Builder
	b.WriteString(`{"parents":`)
	b.Write(pj)
	b.WriteString(`,"probes":[`)
	x := xorshift(0x9e3779b97f4a7c15)
	for i := 0; i < 700; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < len(tr.Leaves()); j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			if x.next()%100 < 85 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte(']')
	}
	b.WriteString("]}")
	return b.String()
}

// TestLossKeyGolden pins loss job IDs: the hex keys of three fixed
// bodies, recorded when the engine still decoded probes into [][]int.
// The packed decoder must hash the same stream, or every cached loss
// result and every client-held job ID would move.
func TestLossKeyGolden(t *testing.T) {
	e := lossEng(t)
	for _, tc := range []struct {
		name, params, key string
	}{
		{"tiny", `{"parents":[-1,0,0],"probes":[[1,1],[1,0],[0,1]]}`, "6109e856c3f93d5a1adc2240f039f476a1fc547fff47a7ba479d098966619096"},
		{"partial-last-word", partialBody(), "b443d82fcf46025314873d1aaa1d99ff6d3c7763ddeffce59aed8e723e93176b"},
		{"perfbench-700x64", perfbenchBody(), "945c24b9e39f89fe2498aa0674ae8a6559dc991760011086ad4cc33b93bbd40a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := e.Normalize(lossSpec(t, tc.params))
			if err != nil {
				t.Fatal(err)
			}
			if got := j.Key(); got != tc.key {
				t.Errorf("key %s, want %s", got, tc.key)
			}
			ref, err := refNormalize([]byte(tc.params))
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.key(); got != tc.key {
				t.Errorf("reference key %s, want %s", got, tc.key)
			}
		})
	}
}

// starBody is a star tree with k receivers, so rows can be wider than
// one word, and one probe per given word: outcome j is bit j%64 of it.
func starBody(k int, rows ...uint64) string {
	parents := make([]string, k+1)
	parents[0] = "-1"
	for i := 1; i <= k; i++ {
		parents[i] = "0"
	}
	var b strings.Builder
	b.WriteString(`{"parents":[` + strings.Join(parents, ",") + `],"probes":[`)
	for i, seed := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < k; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(seed >> (j % 64) & 1)))
		}
		b.WriteByte(']')
	}
	b.WriteString("]}")
	return b.String()
}

// lossParamSeeds are the decoder's corner cases: every one must get the
// same verdict, key and result as encoding/json into Params.
var lossParamSeeds = []string{
	`{"parents":[-1,0,0],"probes":[[1,1],[1,0]]}`,
	`{"parents":[-1,0,0],"probes":[[null,1],[1,null]]}`,
	`{"parents":[-1,0,0],"probes":[[-0,1],[1,-0]]}`,
	`{"parents":[-1,0,0],"probes":[[1.0,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1e0,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,2]]}`,
	`{"parents":[-1,0,0],"probes":[[1,-1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,99999999999999999999]]}`,
	`{"parents":[-1,0,0],"probes":[[1,9223372036854775807]]}`,
	`{"parents":[-1,0,0],"probes":[["1",1]]}`,
	`{"parents":[-1,0,0],"probes":[[true,1]]}`,
	`{"parents":[-1,0,0],"probes":[[{},1]]}`,
	`{"parents":[-1,0,0],"probes":[[[1],1]]}`,
	`{"parents":[-1,0,0],"probes":[1]}`,
	`{"parents":[-1,0,0],"probes":["x"]}`,
	`{"parents":[-1,0,0],"probes":{}}`,
	`{"parents":[-1,0,0],"probes":7}`,
	`{"parents":[-1,0,0],"probes":[]}`,
	`{"parents":[-1,0,0],"probes":null}`,
	`{"parents":[-1,0,0]}`,
	`{"parents":[-1,0,0],"probes":[[],[1,1]]}`,
	`{"parents":[-1,0,0],"probes":[null,[1,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[1]]}`,
	`{"parents":[-1,0,0],"probes":[[1],[1,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,2],[1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[2,1,1]]}`,
	`{"parents":[0],"probes":[[2]]}`,
	`{"parents":[-1,0,0],"PROBES":[[1,1]],"Parents":[-1,0,0,0]}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[1,1]],"probes":[[null,0]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1]],"probes":[[0]],"probes":[[0,null]]}`,
	`{"parents":[-1,0,0],"probes":[[2,3]],"probes":[[0,null]]}`,
	`{"parents":[-1,0,0],"probes":[[2,3]],"probes":[[0,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1]],"probes":null}`,
	`{"parents":[-1,0,0],"probes":[[1,1]],"probes":[],"probes":[[null,null]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[1,1]],"probes":[[0,0],null],"probes":[[0,0],[null,null]]}`,
	`{"parents":[-1,0,0,0],"probes":[[1],[0,1]],"probes":[[1,null,1],[null,null,1],[1,1,1]]}`,
	`{"parents":[-1,0,0,0],"probes":[[1,1,1],[0,1,1]],"Probes":[[0,1,1],[null,1,0],[1,null,1]]}`,
	`{"parents":[-1,0,0,0],"probes":[[2],[1,1,1]],"probes":[[null,1,1],[1,1,1]]}`,
	`{"parents":[-1,0,0],"probes":[[2,1]],"probes":[null],"probes":[[null,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[1,3]],"probes":[[1,1],[]],"probes":[[1,1],[1,null]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1]],"bogus":1}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[0,1]]} trailing`,
	` { "probes" : [ [ 1 , 1 ] , [ 0 , 1 ] ] , "parents" : [ -1 , 0 , 0 ] } `,
	`{"parents":[-1,0,0,1,1,2,2],"probes":[[1,0,1,1],[0,1,1,0],[1,1,1,1],[0,0,0,1],[1,0,0,1]]}`,
	`{"parents":[-1,0,0],"probes":[[1,1],[0,1]],"parents":null}`,
	`null`,
	`[]`,
	`{}`,
	starBody(70, 0x0123456789abcdef, 0xfedcba9876543210, ^uint64(0)),
	starBody(64, 0x8000000000000001),
}

func sameResult(a, b loss.Result) bool {
	if a.Probes != b.Probes {
		return false
	}
	for _, p := range [][2][]float64{{a.Gamma, b.Gamma}, {a.A, b.A}, {a.Alpha, b.Alpha}, {a.Loss, b.Loss}} {
		if len(p[0]) != len(p[1]) {
			return false
		}
		for i := range p[0] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				return false
			}
		}
	}
	return true
}

// FuzzLossParams is the packed decoder's differential: Normalize against
// the reference intake (encoding/json into Params, the same checks, the
// row-major key). They must agree on accept or reject — past the decode,
// with the same message — and, when both accept, on the key, the cost
// hint and Run's result.
func FuzzLossParams(f *testing.F) {
	for _, s := range lossParamSeeds {
		f.Add(s)
	}
	e, err := engine.Lookup(loss.EngineName)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, params string) {
		got, gerr := e.Normalize(engine.Spec{Engine: loss.EngineName, Params: []byte(params)})
		ref, rerr := refNormalize([]byte(params))
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("Normalize err %v, reference err %v", gerr, rerr)
		}
		if rerr != nil {
			const decode = "loss: decode params:"
			if strings.HasPrefix(rerr.Error(), decode) {
				if !strings.HasPrefix(gerr.Error(), decode) {
					t.Fatalf("reference fails to decode (%v), Normalize fails later: %v", rerr, gerr)
				}
			} else if gerr.Error() != rerr.Error() {
				t.Fatalf("Normalize err %q, reference err %q", gerr, rerr)
			}
			return
		}
		if k, rk := got.Key(), ref.key(); k != rk {
			t.Fatalf("key %s, reference key %s", k, rk)
		}
		if h, rh := got.CostHint(), float64(ref.tree.NumNodes())*float64(len(ref.p.Probes)); h != rh {
			t.Fatalf("CostHint %g, reference %g", h, rh)
		}
		res, err := got.Run(context.Background(), nil)
		rres, rerr2 := ref.run()
		if (err == nil) != (rerr2 == nil) || err != nil && err.Error() != rerr2.Error() {
			t.Fatalf("Run err %v, reference Run err %v", err, rerr2)
		}
		if err == nil && !sameResult(res.(loss.Result), rres) {
			t.Fatalf("Run result %+v, reference %+v", res, rres)
		}
	})
}

// TestLossNormalizeAllocs bounds the intake of the benchmark-shaped
// 700×64 body: decoding probes into [][]int took about 5,000
// allocations, the packed decoder a few hundred (the JSON decoder's
// buffer, parents and the tree dominate).
func TestLossNormalizeAllocs(t *testing.T) {
	e := lossEng(t)
	spec := lossSpec(t, perfbenchBody())
	if _, err := e.Normalize(spec); err != nil {
		t.Fatal(err)
	}
	const limit = 500
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := e.Normalize(spec); err != nil {
			t.Fatal(err)
		}
	}); avg > limit {
		t.Fatalf("Normalize of the 700x64 body: %.0f allocs, want at most %d", avg, limit)
	}
}
