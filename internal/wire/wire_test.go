package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

const testMagic = 0xA7

// frame builds a frame under testMagic whose header claims size bytes and
// whose body is body.
func frame(typ byte, size uint32, body []byte) []byte {
	f := Begin(nil, testMagic, typ)
	binary.BigEndian.PutUint32(f[2:], size)
	return append(f, body...)
}

func TestSealAndReadFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, firstChunk - 1, firstChunk, firstChunk + 1, 3*firstChunk + 5} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		prefix := []byte("prefix")
		f := Begin(prefix, testMagic, 0x03)
		f = append(f, payload...)
		f, err := Seal(f, len(prefix))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(f[len(prefix)+2:]); got != uint32(n) {
			t.Fatalf("n=%d: sealed length %d", n, got)
		}
		// HalfReader hands over half of each read, so long payloads arrive
		// in pieces across the buffer's growth steps.
		typ, got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(f[len(prefix):])), testMagic)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if typ != 0x03 || !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: read type 0x%02x and %d bytes", n, typ, len(got))
		}
	}
}

func TestSealRejectsOversizedPayload(t *testing.T) {
	dst := Begin(make([]byte, 0, HeaderSize+MaxPayload+1), testMagic, 1)
	dst = dst[:HeaderSize+MaxPayload+1]
	out, err := Seal(dst, 0)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Seal of a %d-byte payload: %v, want ErrTooLarge", MaxPayload+1, err)
	}
	if len(out) != 0 {
		t.Fatalf("Seal kept %d bytes of a rejected frame", len(out))
	}
	if _, err := Seal(dst[:HeaderSize+MaxPayload], 0); err != nil {
		t.Fatalf("Seal of exactly MaxPayload: %v", err)
	}
}

func TestReadFrameRejections(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      []byte
		wantIs  error // nil: any error
		tooLong bool
	}{
		{name: "empty stream", in: nil, wantIs: io.EOF},
		{name: "short header", in: []byte{testMagic, 1, 0}, wantIs: io.ErrUnexpectedEOF},
		{name: "wrong magic", in: []byte{testMagic + 1, 1, 0, 0, 0, 0}},
		{name: "short payload", in: frame(1, 10, []byte{1, 2, 3}), wantIs: io.ErrUnexpectedEOF},
		{name: "missing payload", in: frame(1, 10, nil), wantIs: io.EOF},
		{name: "short after first chunk", in: frame(1, firstChunk+10, make([]byte, firstChunk)), wantIs: io.ErrUnexpectedEOF},
		{name: "claim of MaxPayload+1", in: frame(1, MaxPayload+1, []byte{1}), wantIs: ErrTooLarge, tooLong: true},
		{name: "claim of 4 GiB", in: frame(1, 1<<32-1, nil), wantIs: ErrTooLarge, tooLong: true},
		{name: "claim of MaxPayload, short body", in: frame(1, MaxPayload, make([]byte, 100)), wantIs: io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, payload, err := ReadFrame(bytes.NewReader(tc.in), testMagic)
			if err == nil || payload != nil {
				t.Fatalf("accepted: payload %d bytes, err %v", len(payload), err)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("err %v, want %v", err, tc.wantIs)
			}
			if !tc.tooLong && errors.Is(err, ErrTooLarge) {
				t.Fatalf("err %v for a claim within the bound", err)
			}
		})
	}
}

func TestCursorReadsFields(t *testing.T) {
	var p []byte
	p = append(p, 0xAB)
	p = binary.BigEndian.AppendUint16(p, 0xBEEF)
	p = binary.BigEndian.AppendUint32(p, 0xDEADBEEF)
	p = binary.BigEndian.AppendUint64(p, 1<<63|5)
	p = AppendString16(p, "name")
	p = AppendBlob32(p, []byte{9, 8, 7})
	p = AppendBlob32(p, nil)
	p = append(p, 1, 2)

	c := NewCursor(p)
	if c.Byte() != 0xAB || c.Uint16() != 0xBEEF || c.Uint32() != 0xDEADBEEF || c.Uint64() != 1<<63|5 {
		t.Fatal("fixed-width fields read back wrong")
	}
	if s := c.String16(); s != "name" {
		t.Fatalf("String16 = %q", s)
	}
	blob := c.Blob32()
	if !bytes.Equal(blob, []byte{9, 8, 7}) || cap(blob) != len(blob) {
		t.Fatalf("Blob32 = %v (cap %d)", blob, cap(blob))
	}
	if &blob[0] != &p[len(p)-9] {
		t.Fatal("Blob32 copied instead of viewing the payload")
	}
	if empty := c.Blob32(); empty != nil {
		t.Fatalf("empty blob read as %#v, want nil", empty)
	}
	if c.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", c.Remaining())
	}
	if err := c.Done("fields"); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("Done with 2 bytes left: %v", err)
	}
	c.Bytes(2)
	if err := c.Done("fields"); err != nil {
		t.Fatalf("Done at the end: %v", err)
	}
}

func TestCursorFailureIsSticky(t *testing.T) {
	c := NewCursor([]byte{1, 2, 3})
	if v := c.Uint32(); v != 0 || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("short Uint32 = %d, err %v", v, c.Err())
	}
	if c.Remaining() != 0 {
		t.Fatalf("Remaining after failure = %d", c.Remaining())
	}
	if c.Byte() != 0 || c.Bytes(0) != nil || c.String16() != "" || c.Blob32() != nil {
		t.Fatal("a read after the failure returned data")
	}
	if err := c.Done("x"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Done after failure: %v", err)
	}
	c = NewCursor([]byte{1, 2})
	if c.Bytes(-1) != nil || !errors.Is(c.Err(), ErrTruncated) {
		t.Fatal("Bytes(-1) succeeded")
	}
}

// FuzzCursor runs arbitrary read sequences over arbitrary payloads, and
// round-trips fields written with the append helpers. Invariants: nothing
// panics; Remaining never goes negative; a successful read returns the
// payload's bytes at its offset; Bytes(n) returns exactly n bytes or nil
// with Err set; after the first failure every read returns zero and Err
// does not change; Begin, Seal and ReadFrame carry any payload intact.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2, 3}, "", []byte(nil), uint16(0), uint32(0), uint64(0))
	f.Add([]byte{0, 3, 'a', 'b', 'c', 0, 0, 0, 1, 9}, []byte{5, 6, 7}, "m-7", []byte{1, 2}, uint16(7), uint32(1<<31), uint64(1<<63))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, []byte{6, 0, 7}, "名前", []byte{0}, uint16(0xFFFF), uint32(1<<32-1), uint64(1<<64-1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{3, 3, 0, 4, 12, 20, 7}, "x", []byte("blob"), uint16(1), uint32(2), uint64(3))
	f.Fuzz(func(t *testing.T, payload, ops []byte, s string, blob []byte, u16 uint16, u32 uint32, u64 uint64) {
		c := NewCursor(payload)
		var firstErr error
		for _, op := range ops {
			failedBefore := c.Err() != nil
			off := len(payload) - c.Remaining()
			var n int     // bytes a successful read consumes
			var zero bool // the read returned its zero value
			var want bool // a successful read returned the payload's bytes
			switch op % 8 {
			case 0:
				v := c.Byte()
				n, zero = 1, v == 0
				want = c.Err() != nil || v == payload[off]
			case 1:
				v := c.Uint16()
				n, zero = 2, v == 0
				want = c.Err() != nil || v == binary.BigEndian.Uint16(payload[off:])
			case 2:
				v := c.Uint32()
				n, zero = 4, v == 0
				want = c.Err() != nil || v == binary.BigEndian.Uint32(payload[off:])
			case 3:
				v := c.Uint64()
				n, zero = 8, v == 0
				want = c.Err() != nil || v == binary.BigEndian.Uint64(payload[off:])
			case 4:
				k := int(op>>3) - 2
				v := c.Bytes(k)
				n, zero = k, v == nil
				if c.Err() == nil {
					want = len(v) == k && bytes.Equal(v, payload[off:off+k])
				} else {
					want = v == nil
				}
			case 5:
				v := c.String16()
				n, zero = len(v)+2, v == ""
				want = c.Err() != nil || v == string(payload[off+2:off+n])
			case 6:
				v := c.Blob32()
				n, zero = len(v)+4, v == nil
				want = c.Err() != nil || bytes.Equal(v, payload[off+4:off+n])
			case 7:
				if err := c.Done("fuzz"); err == nil && c.Remaining() != 0 {
					t.Fatalf("Done accepted %d trailing bytes", c.Remaining())
				}
				zero, want = true, true
			}
			if c.Remaining() < 0 {
				t.Fatalf("Remaining = %d", c.Remaining())
			}
			if !want {
				t.Fatalf("op %d at offset %d read the wrong bytes", op%8, off)
			}
			if c.Err() == nil && op%8 != 7 && len(payload)-c.Remaining() != off+n {
				t.Fatalf("op %d consumed %d bytes, want %d", op%8, len(payload)-c.Remaining()-off, n)
			}
			if failedBefore {
				if !zero || c.Err() != firstErr {
					t.Fatalf("op %d after a failure returned data or changed Err to %v", op%8, c.Err())
				}
			} else if c.Err() != nil {
				if c.Remaining() != 0 {
					t.Fatalf("failed cursor has %d bytes left", c.Remaining())
				}
				firstErr = c.Err()
			}
		}

		if len(s) <= 1<<16-1 {
			var p []byte
			p = binary.BigEndian.AppendUint16(p, u16)
			p = binary.BigEndian.AppendUint32(p, u32)
			p = binary.BigEndian.AppendUint64(p, u64)
			p = AppendString16(p, s)
			p = AppendBlob32(p, blob)
			rc := NewCursor(p)
			if rc.Uint16() != u16 || rc.Uint32() != u32 || rc.Uint64() != u64 || rc.String16() != s {
				t.Fatal("fixed-width fields or string did not read back")
			}
			got := rc.Blob32()
			if !bytes.Equal(got, blob) || (len(blob) == 0) != (got == nil) {
				t.Fatalf("blob read back as %#v, want %#v", got, blob)
			}
			if err := rc.Done("fields"); err != nil {
				t.Fatal(err)
			}
		}

		fr, err := Seal(append(Begin(nil, testMagic, byte(u16)), payload...), 0)
		if err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(bytes.NewReader(fr), testMagic)
		if err != nil || typ != byte(u16) || !bytes.Equal(got, payload) {
			t.Fatalf("frame round trip: type 0x%02x, %d bytes, err %v", typ, len(got), err)
		}
	})
}
