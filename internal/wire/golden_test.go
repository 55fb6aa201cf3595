package wire_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"robusttomo/internal/agent"
	"robusttomo/internal/cluster"
)

// TestFrameBytesGolden pins the exact bytes both planes put on the wire.
// Each hash covers the concatenated frames of one message kind, encoded
// with the planes' exported encoders. The hashes were recorded before the
// planes shared this package, so a codec change that moves any frame byte
// fails here.
func TestFrameBytesGolden(t *testing.T) {
	var probes, results, requests, responses []byte
	var err error
	for _, b := range []*agent.ProbeBatch{
		{Type: agent.MsgBatch},
		{Type: agent.MsgBatch, Epoch: 42, Monitor: "m-7", Paths: []agent.BatchPath{
			{PathID: 0, Links: []int{0, 1, 2}},
			{PathID: 9},
			{PathID: 1 << 20, Links: []int{1<<32 - 1}},
		}},
		{Type: agent.MsgBatch, Epoch: -3, Monitor: strings.Repeat("名", 300), Paths: []agent.BatchPath{
			{PathID: 1<<32 - 1, Links: []int{7, 7, 6, 5, 65535, 65536}},
		}},
	} {
		if probes, err = agent.EncodeProbeBatch(probes, agent.EncodingBinary, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*agent.ResultBatch{
		{Type: agent.MsgBatchResult},
		{Type: agent.MsgBatchResult, Epoch: 42, Monitor: "m-7", Results: []agent.BatchResult{
			{PathID: 0, OK: true, Value: 0},
			{PathID: 9, OK: false, Value: 0},
			{PathID: 1 << 20, OK: true, Value: -123.456},
		}},
		{Type: agent.MsgBatchResult, Epoch: 1 << 40, Monitor: "edge", Results: []agent.BatchResult{
			{PathID: 1, OK: true, Value: math.Copysign(0, -1)},
			{PathID: 2, OK: true, Value: math.Inf(1)},
			{PathID: 3, OK: true, Value: math.Inf(-1)},
			{PathID: 4, OK: true, Value: math.Float64frombits(0x7FF8_0000_0000_0001)},
			{PathID: 5, OK: true, Value: math.MaxFloat64},
			{PathID: 6, OK: true, Value: math.SmallestNonzeroFloat64},
		}},
	} {
		if results, err = agent.EncodeResultBatch(results, agent.EncodingBinary, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*cluster.PeerRequest{
		{Op: cluster.OpPing},
		{Op: cluster.OpStats, Origin: "node-a"},
		{Op: cluster.OpCacheProbe, Key: strings.Repeat("k", 64), Origin: "node-b"},
		{Op: cluster.OpExec, Forwarded: true, Key: "abc123", Origin: "node-c", Spec: []byte(`{"links":3}`)},
		{Op: cluster.OpExec, Spec: []byte(strings.Repeat("s", 70000))},
	} {
		if requests, err = cluster.EncodePeerRequest(requests, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*cluster.PeerResponse{
		{Status: cluster.StatusOK, Payload: []byte(`{"paths":[0,1]}`)},
		{Status: cluster.StatusMiss},
		{Status: cluster.StatusFailed, Err: "engine exploded"},
		{Status: cluster.StatusOverloaded, Err: "queue full, retry after 1s"},
		{Status: cluster.StatusOK, Payload: []byte(strings.Repeat("p", 70000))},
	} {
		if responses, err = cluster.EncodePeerResponse(responses, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"probe batches", probes, "a768823706f5c3a5dee052ee39a37d0ae01f32fe44c1eec519d587dda550a347"},
		{"result batches", results, "cf7a2228f3666f57dc15bbeb2f964b5977812e21fbea065b48c1b2ec440c05be"},
		{"peer requests", requests, "a120f6d00ca00dee52b762086f3cf9d7f922cb9f74e044ef8c6e52a66d1e2c6a"},
		{"peer responses", responses, "6092d0132e9753c9ef4d2e3b4b4812eef63a95843e3f1c19b0a97c7d7a7ca196"},
	} {
		sum := sha256.Sum256(tc.bytes)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", tc.name, len(tc.bytes), got, tc.want)
		}
	}
}
