package agent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleProbeBatch() *ProbeBatch {
	return &ProbeBatch{
		Type:    MsgBatch,
		Epoch:   42,
		Monitor: "m-7",
		Paths: []BatchPath{
			{PathID: 0, Links: []int{0, 1, 2}},
			{PathID: 9, Links: nil},
			{PathID: 1 << 20, Links: []int{1<<32 - 1}},
		},
	}
}

func sampleResultBatch() *ResultBatch {
	return &ResultBatch{
		Type:    MsgBatchResult,
		Epoch:   42,
		Monitor: "m-7",
		Results: []BatchResult{
			{PathID: 0, OK: true, Value: 0}, // exact zero must survive
			{PathID: 9, OK: false, Value: 0},
			{PathID: 1 << 20, OK: true, Value: -123.456},
		},
	}
}

// TestBatchRoundTripBothEncodings drives both batch types through both
// encodings and back through the unified reader.
func TestBatchRoundTripBothEncodings(t *testing.T) {
	for _, enc := range []Encoding{EncodingBinary, EncodingJSON} {
		t.Run(enc.String(), func(t *testing.T) {
			pb := sampleProbeBatch()
			rb := sampleResultBatch()
			var wire []byte
			var err error
			if wire, err = EncodeProbeBatch(wire, enc, pb); err != nil {
				t.Fatalf("encode probe batch: %v", err)
			}
			if wire, err = EncodeResultBatch(wire, enc, rb); err != nil {
				t.Fatalf("encode result batch: %v", err)
			}

			r := bufio.NewReader(bytes.NewReader(wire))
			msg, err := readMessage(r)
			if err != nil {
				t.Fatalf("read probe batch: %v", err)
			}
			gotPB, ok := msg.(*ProbeBatch)
			if !ok {
				t.Fatalf("first frame decoded as %T", msg)
			}
			if gotPB.enc != enc {
				t.Fatalf("probe batch enc = %v, want %v", gotPB.enc, enc)
			}
			gotPB.enc = pb.enc // ignore transport bookkeeping in the compare
			// JSON omits empty link slices as null; normalize.
			for i := range gotPB.Paths {
				if len(gotPB.Paths[i].Links) == 0 {
					gotPB.Paths[i].Links = nil
				}
			}
			if !reflect.DeepEqual(gotPB, pb) {
				t.Fatalf("probe batch round trip:\n got %+v\nwant %+v", gotPB, pb)
			}

			msg, err = readMessage(r)
			if err != nil {
				t.Fatalf("read result batch: %v", err)
			}
			gotRB, ok := msg.(*ResultBatch)
			if !ok {
				t.Fatalf("second frame decoded as %T", msg)
			}
			if !reflect.DeepEqual(gotRB, rb) {
				t.Fatalf("result batch round trip:\n got %+v\nwant %+v", gotRB, rb)
			}
		})
	}
}

// TestBatchBinaryPreservesFloatBits checks the binary codec carries exact
// float64 bit patterns, including negative zero and non-finite values the
// JSON fallback cannot express.
func TestBatchBinaryPreservesFloatBits(t *testing.T) {
	rb := &ResultBatch{
		Type:  MsgBatchResult,
		Epoch: 1,
		Results: []BatchResult{
			{PathID: 0, OK: true, Value: math.Copysign(0, -1)},
			{PathID: 1, OK: true, Value: math.Inf(1)},
			{PathID: 2, OK: true, Value: math.MaxFloat64},
		},
	}
	wire, err := EncodeResultBatch(nil, EncodingBinary, rb)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := readMessage(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*ResultBatch)
	for i := range rb.Results {
		want := math.Float64bits(rb.Results[i].Value)
		have := math.Float64bits(got.Results[i].Value)
		if want != have {
			t.Fatalf("result %d: bits %x, want %x", i, have, want)
		}
	}
}

// TestMixedBinaryJSONStream interleaves binary and JSON batch frames on
// one stream: the reader must decode all of them in order.
func TestMixedBinaryJSONStream(t *testing.T) {
	var wire []byte
	var err error
	if wire, err = EncodeProbeBatch(wire, EncodingBinary, sampleProbeBatch()); err != nil {
		t.Fatal(err)
	}
	if wire, err = EncodeProbeBatch(wire, EncodingJSON, sampleProbeBatch()); err != nil {
		t.Fatal(err)
	}
	if wire, err = EncodeResultBatch(wire, EncodingJSON, sampleResultBatch()); err != nil {
		t.Fatal(err)
	}
	if wire, err = EncodeResultBatch(wire, EncodingBinary, sampleResultBatch()); err != nil {
		t.Fatal(err)
	}

	r := bufio.NewReader(bytes.NewReader(wire))
	wantTypes := []string{"*agent.ProbeBatch", "*agent.ProbeBatch", "*agent.ResultBatch", "*agent.ResultBatch"}
	for i, want := range wantTypes {
		msg, err := readMessage(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := reflect.TypeOf(msg).String(); got != want {
			t.Fatalf("frame %d: decoded %s, want %s", i, got, want)
		}
	}
}

// TestBinaryFrameBounds exercises the hostile-length defenses: a claimed
// payload beyond maxFrame is rejected from the 6-byte header alone, and
// entry counts that cannot fit the actual payload are rejected before
// allocation.
func TestBinaryFrameBounds(t *testing.T) {
	// Oversized claimed length.
	hdr := []byte{frameMagic, frameTypeResult, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
		t.Fatal("accepted a 4 GiB claimed payload")
	}

	// A result batch claiming 1<<19 entries inside a tiny payload.
	var payload []byte
	payload = appendUint64(payload, 0)       // epoch
	payload = appendUint16(payload, 0)       // monitor name
	payload = appendUint32(payload, 1<<19)   // absurd count
	payload = append(payload, 1, 2, 3, 4, 5) // 5 bytes of "entries"
	frame := []byte{frameMagic, frameTypeResult, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(frame[2:6], uint32(len(payload)))
	frame = append(frame, payload...)
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("accepted a count that cannot fit the payload")
	}

	// Truncated payload: header promises more bytes than the stream has.
	good, err := EncodeResultBatch(nil, EncodingBinary, sampleResultBatch())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(good[:len(good)-3]))); err == nil {
		t.Fatal("accepted a truncated frame")
	}

	// Trailing garbage inside a probe-batch payload.
	pb, err := EncodeProbeBatch(nil, EncodingBinary, sampleProbeBatch())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, pb...)
	bad = append(bad, 0xEE)
	binary.BigEndian.PutUint32(bad[2:6], binary.BigEndian.Uint32(bad[2:6])+1)
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("accepted trailing bytes inside a probe-batch payload")
	}
}

// TestEncodeRejectsUnencodable checks the binary encoders reject fields
// the fixed-width layout cannot carry instead of silently truncating.
func TestEncodeRejectsUnencodable(t *testing.T) {
	cases := []struct {
		name string
		pb   *ProbeBatch
		rb   *ResultBatch
	}{
		{name: "negative path id", pb: &ProbeBatch{Paths: []BatchPath{{PathID: -1}}}},
		{name: "negative link id", pb: &ProbeBatch{Paths: []BatchPath{{PathID: 0, Links: []int{-2}}}}},
		{name: "path id over uint32", pb: &ProbeBatch{Paths: []BatchPath{{PathID: 1 << 33}}}},
		{name: "oversized monitor name", pb: &ProbeBatch{Monitor: strings.Repeat("n", 1<<16)}},
		{name: "negative result path id", rb: &ResultBatch{Results: []BatchResult{{PathID: -1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.pb != nil {
				_, err = EncodeProbeBatch(nil, EncodingBinary, tc.pb)
			} else {
				_, err = EncodeResultBatch(nil, EncodingBinary, tc.rb)
			}
			if err == nil {
				t.Fatal("encoder accepted an unencodable batch")
			}
		})
	}
}

// TestBatchResultZeroValueOnWire is the regression test for the
// `omitempty` bug: a successful probe whose measurement is exactly 0 must
// keep its value field in the JSON fallback and decode back intact, not be
// dropped and re-zeroed on the far side (indistinguishable from an absent
// field).
func TestBatchResultZeroValueOnWire(t *testing.T) {
	rb := &ResultBatch{Type: MsgBatchResult, Epoch: 0, Monitor: "m",
		Results: []BatchResult{{PathID: 1, OK: true, Value: 0}}}
	wire, err := EncodeResultBatch(nil, EncodingJSON, rb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), `"value":0`) {
		t.Fatalf("zero value omitted from batch JSON: %s", wire)
	}
	msg, err := readMessage(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := msg.(*ResultBatch); !ok || !reflect.DeepEqual(got, rb) {
		t.Fatalf("round trip: got %+v, want %+v", msg, rb)
	}
}
