package agent

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestProbeResultZeroValueRoundTrip is the regression test for the
// `omitempty` bug, end to end: a real monitor that measures a path at
// exactly 0 must put the value field on the wire in its JSON reply, and
// both encodings must decode it as a successful 0 measurement, not as an
// absent field re-zeroed on the far side.
func TestProbeResultZeroValueRoundTrip(t *testing.T) {
	oracle, err := NewEpochOracle([]float64{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartMonitor("m0", "127.0.0.1:0", oracle)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)

	probe := &ProbeBatch{Type: MsgBatch, Epoch: 3, Monitor: "m0",
		Paths: []BatchPath{{PathID: 7, Links: []int{0}}}}
	want := &ResultBatch{Type: MsgBatchResult, Epoch: 3, Monitor: "m0",
		Results: []BatchResult{{PathID: 7, OK: true, Value: 0}}}
	for _, enc := range []Encoding{EncodingJSON, EncodingBinary} {
		wire, err := EncodeProbeBatch(nil, enc, probe)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		var msg any
		if enc == EncodingJSON {
			line, err := readLine(r)
			if err != nil {
				t.Fatalf("%v reply: %v", enc, err)
			}
			if !strings.Contains(string(line), `"value":0`) {
				t.Fatalf("zero value omitted from the monitor's reply: %s", line)
			}
			msg, err = readMessage(bufio.NewReader(bytes.NewReader(line)))
			if err != nil {
				t.Fatalf("%v decode: %v", enc, err)
			}
		} else if msg, err = readMessage(r); err != nil {
			t.Fatalf("%v reply: %v", enc, err)
		}
		if got, ok := msg.(*ResultBatch); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v round trip: got %+v, want %+v", enc, msg, want)
		}
	}
}

// countingReader counts how many bytes the consumer actually pulled, so
// the oversized-line test can prove the limit is enforced during the read
// rather than after buffering the whole line.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadLineBoundedDuringRead feeds a 64 MiB newline-free stream into
// readLine: it must reject the line having consumed barely more than the
// 1 MiB bound, instead of buffering the whole stream before checking.
func TestReadLineBoundedDuringRead(t *testing.T) {
	const streamSize = 64 << 20
	src := &countingReader{r: io.LimitReader(neverNewline{}, streamSize)}
	r := bufio.NewReader(src)
	if _, err := readLine(r); err == nil {
		t.Fatal("readLine accepted an oversized line")
	}
	// One bufio buffer of slack past the bound is the allowed overshoot.
	if limit := maxLine + 64<<10; src.n > limit {
		t.Fatalf("readLine consumed %d bytes before rejecting (limit %d): bound not enforced during the read", src.n, limit)
	}
}

// TestReadLineOversizedWithNewline covers the original shape of the bug: a
// well-terminated but oversized line must still be rejected without
// buffering it whole.
func TestReadLineOversizedWithNewline(t *testing.T) {
	huge := strings.Repeat("x", maxLine+5) + "\n"
	src := &countingReader{r: strings.NewReader(huge)}
	if _, err := readLine(bufio.NewReader(src)); err == nil {
		t.Fatal("readLine accepted an oversized terminated line")
	}
	if limit := maxLine + 64<<10; src.n > limit {
		t.Fatalf("readLine consumed %d bytes before rejecting (limit %d)", src.n, limit)
	}
}

// TestReadLineAcceptsLongValidLines makes sure the in-read bound did not
// shrink the accepted line length: a line just under the cap still reads
// whole, across many bufio refills.
func TestReadLineAcceptsLongValidLines(t *testing.T) {
	payload := strings.Repeat("y", maxLine-1) + "\n"
	line, err := readLine(bufio.NewReader(strings.NewReader(payload)))
	if err != nil {
		t.Fatalf("readLine rejected a %d-byte line under the bound: %v", len(payload), err)
	}
	if len(line) != len(payload) {
		t.Fatalf("readLine returned %d bytes, want %d", len(line), len(payload))
	}
}

// neverNewline is an infinite stream with no newline in it.
type neverNewline struct{}

func (neverNewline) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'z'
	}
	return len(p), nil
}
