package agent

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzWireFrame throws arbitrary bytes at the NOC-side frame reader:
// readLine must never panic or hand back an unbounded line, and any line
// it does accept must flow through peekType without a crash. This is the
// surface a hostile or corrupted monitor reaches first.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte(`{"type":"probe","epoch":1,"pathId":2,"links":[0,1],"dstName":"b"}` + "\n"))
	f.Add([]byte(`{"type":"result","epoch":1,"pathId":2,"ok":true,"value":3.5,"monitor":"a"}` + "\n"))
	f.Add([]byte(`{"type":"shutdown"}` + "\n"))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"type":`))                                      // truncated JSON, no newline
	f.Add([]byte(`not json at all` + "\n"))                        // garbage line
	f.Add([]byte(`{"type":123}` + "\n"))                           // type of the wrong kind
	f.Add([]byte(strings.Repeat("x", 1<<20+5) + "\n"))             // oversized frame
	f.Add([]byte("{\"type\":\"probe\"}\n{\"type\":\"result\"}\n")) // two frames
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			line, err := readLine(r)
			if err != nil {
				// Errors are fine (EOF, oversize, broken frames); the
				// invariant is no panic and no oversized acceptance.
				return
			}
			if len(line) > 1<<20 {
				t.Fatalf("readLine accepted %d-byte frame past its 1 MiB bound", len(line))
			}
			mt, err := peekType(line)
			if err != nil {
				continue // malformed head on a well-framed line: rejected, keep reading
			}
			// Accepted types decode into their structs without panicking.
			switch mt {
			case MsgBatch:
				var b ProbeBatch
				_ = json.Unmarshal(line, &b)
			case MsgBatchResult:
				var b ResultBatch
				_ = json.Unmarshal(line, &b)
			}
		}
	})
}

// FuzzBatchFrame throws arbitrary bytes at the unified readMessage reader
// — the surface that accepts binary batch frames and JSON batch lines on
// one stream. Invariants: no panic, no oversized acceptance (claimed frame
// lengths past wire.MaxPayload are rejected from the header alone), and every
// decoded message is one of the known types.
func FuzzBatchFrame(f *testing.F) {
	// Well-formed frames in both encodings.
	if wire, err := EncodeProbeBatch(nil, EncodingBinary, sampleProbeBatch()); err == nil {
		f.Add(wire)
	}
	if wire, err := EncodeResultBatch(nil, EncodingJSON, sampleResultBatch()); err == nil {
		f.Add(wire)
	}
	// A binary frame followed by a JSON line of an unknown type.
	if wire, err := EncodeResultBatch(nil, EncodingBinary, sampleResultBatch()); err == nil {
		f.Add(append(wire, []byte(`{"type":"probe","epoch":1,"pathId":2,"links":[0],"dstName":"d"}`+"\n")...))
	}
	// Truncated length prefixes: magic alone, magic+type, partial length.
	f.Add([]byte{frameMagic})
	f.Add([]byte{frameMagic, frameTypeProbe})
	f.Add([]byte{frameMagic, frameTypeResult, 0x00, 0x01})
	// Oversized claimed length, unknown frame type, zero-length payload.
	f.Add([]byte{frameMagic, frameTypeProbe, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{frameMagic, 0x7F, 0, 0, 0, 0})
	f.Add([]byte{frameMagic, frameTypeResult, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			msg, err := readMessage(r)
			if err != nil {
				return // EOF or rejection: fine, as long as nothing panicked
			}
			switch msg.(type) {
			case *ProbeBatch, *ResultBatch:
			default:
				t.Fatalf("readMessage produced unknown type %T", msg)
			}
		}
	})
}

// FuzzBatchRoundTrip drives the batch codec with structured inputs: any
// batch the NOC can express must survive encode → readMessage in both
// encodings with every field intact (float64 values bit-exact in binary,
// value-exact in JSON for finite values).
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(0, "", 0, true, 0.0, true)
	f.Add(42, "m-7", 3, false, -123.456, false)
	f.Add(-1, "名前", 9, true, math.MaxFloat64, true)
	f.Add(1<<40, "x", 1<<20, true, 0.5, false)
	f.Fuzz(func(t *testing.T, epoch int, monitor string, pathID int, ok bool, value float64, binary bool) {
		enc := EncodingJSON
		if binary {
			enc = EncodingBinary
		}
		pb := &ProbeBatch{
			Type:    MsgBatch,
			Epoch:   epoch,
			Monitor: monitor,
			Paths:   []BatchPath{{PathID: pathID, Links: []int{0, pathID & 0xffff}}},
		}
		rb := &ResultBatch{
			Type:    MsgBatchResult,
			Epoch:   epoch,
			Monitor: monitor,
			Results: []BatchResult{{PathID: pathID, OK: ok, Value: value}},
		}

		encodable := pathID >= 0 && pathID <= maxFieldValue &&
			len(monitor) <= maxMonitorName && utf8.ValidString(monitor)
		finite := !math.IsNaN(value) && !math.IsInf(value, 0)
		if enc == EncodingJSON && (!finite || !utf8.ValidString(monitor)) {
			// JSON cannot express NaN/Inf and coerces invalid UTF-8; the
			// encoder must reject the former, and the latter cannot be
			// byte-exact — skip exactness checks either way.
			encodable = false
		}

		var wire []byte
		var err error
		if wire, err = EncodeProbeBatch(wire, enc, pb); err != nil {
			if encodable && (enc == EncodingBinary || finite) {
				t.Fatalf("EncodeProbeBatch rejected encodable batch: %v", err)
			}
			return
		}
		if wire, err = EncodeResultBatch(wire, enc, rb); err != nil {
			if encodable && (enc == EncodingBinary || finite) {
				t.Fatalf("EncodeResultBatch rejected encodable batch: %v", err)
			}
			return
		}
		if !encodable || (enc == EncodingJSON && !finite) {
			return // accepted despite being flagged borderline: decode check below would be unreliable
		}

		r := bufio.NewReader(bytes.NewReader(wire))
		msg, err := readMessage(r)
		if err != nil {
			t.Fatalf("readMessage probe batch: %v", err)
		}
		gotPB, castOK := msg.(*ProbeBatch)
		if !castOK {
			t.Fatalf("first frame decoded as %T", msg)
		}
		if gotPB.Epoch != epoch || gotPB.Monitor != monitor ||
			len(gotPB.Paths) != 1 || gotPB.Paths[0].PathID != pathID {
			t.Fatalf("probe batch round trip: got %+v, want %+v", gotPB, pb)
		}
		msg, err = readMessage(r)
		if err != nil {
			t.Fatalf("readMessage result batch: %v", err)
		}
		gotRB, castOK := msg.(*ResultBatch)
		if !castOK {
			t.Fatalf("second frame decoded as %T", msg)
		}
		got := gotRB.Results[0]
		if gotRB.Epoch != epoch || got.PathID != pathID || got.OK != ok {
			t.Fatalf("result batch round trip: got %+v, want %+v", gotRB, rb)
		}
		if enc == EncodingBinary {
			if math.Float64bits(got.Value) != math.Float64bits(value) {
				t.Fatalf("binary value bits %x, want %x", math.Float64bits(got.Value), math.Float64bits(value))
			}
		} else if finite && got.Value != value {
			t.Fatalf("JSON value %v, want %v", got.Value, value)
		}
	})
}
