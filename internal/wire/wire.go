// Package wire is the frame codec of the repository's two binary wires:
// the agent plane's batch frames (magic 0xB5) and the cluster plane's peer
// frames (magic 0xC9). Every frame has the same shape:
//
//	offset 0      magic byte (one per plane)
//	offset 1      frame type (the plane's own)
//	offset 2..5   payload length, uint32 big-endian, ≤ MaxPayload
//	offset 6..    payload: fixed-width big-endian fields
//
// The package knows only that shape. Begin and Seal write the header,
// ReadFrame reads one frame, and a Cursor reads payload fields. Each plane
// keeps its magic byte, frame types, field layouts and field limits.
//
// Every external length is checked before it allocates: ReadFrame rejects
// a claim above MaxPayload from the header alone and allocates at most
// firstChunk before payload bytes arrive, and every Cursor read checks
// its length against the bytes present.
//
// Ownership: ReadFrame allocates a fresh payload for every frame and
// never reuses it, so a decoder may return views into it (Bytes, Blob32)
// instead of copies. A reader that pools payloads must copy out every
// view a decoded message keeps.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// HeaderSize is the frame header: magic, type and uint32 length.
	HeaderSize = 6
	// MaxPayload bounds one frame payload (16 MiB, about 600k result
	// entries): far above any real batch, spec or result, far below an
	// allocation attack.
	MaxPayload = 1 << 24

	// firstChunk is the most ReadFrame allocates before the payload's
	// bytes arrive. A longer payload grows the buffer as it is read, so a
	// header's claim alone costs at most this much.
	firstChunk = 64 << 10
)

var (
	// ErrTooLarge marks a frame that claims or needs more than MaxPayload
	// payload bytes.
	ErrTooLarge = errors.New("wire: frame exceeds size bound")
	// ErrTruncated marks a payload read past its end.
	ErrTruncated = errors.New("wire: truncated frame")
)

// Begin appends a frame header with a zero length to dst. The caller
// appends the payload, then calls Seal with start = len(dst) before Begin.
func Begin(dst []byte, magic, typ byte) []byte {
	return append(dst, magic, typ, 0, 0, 0, 0)
}

// Seal back-patches the payload length of the frame that starts at
// start. A payload over MaxPayload returns dst[:start] and ErrTooLarge.
func Seal(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - HeaderSize
	if n > MaxPayload {
		return dst[:start], fmt.Errorf("%w: %d-byte payload", ErrTooLarge, n)
	}
	binary.BigEndian.PutUint32(dst[start+2:], uint32(n))
	return dst, nil
}

// AppendString16 appends s behind a uint16 length. The caller keeps
// len(s) < 1<<16; that limit is a field limit of its plane.
func AppendString16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendBlob32 appends b behind a uint32 length.
func AppendBlob32(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// ReadFrame reads one frame whose first byte must be magic and returns
// its type byte and payload. A header that ends early returns io.ReadFull's
// error unwrapped (io.EOF at a clean frame boundary).
func ReadFrame(r io.Reader, magic byte) (typ byte, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != magic {
		return 0, nil, fmt.Errorf("wire: bad frame magic 0x%02x, want 0x%02x", hdr[0], magic)
	}
	size := binary.BigEndian.Uint32(hdr[2:])
	if size > MaxPayload {
		return 0, nil, fmt.Errorf("%w: claimed %d-byte payload", ErrTooLarge, size)
	}
	if payload, err = readPayload(r, int(size)); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame payload: %w", err)
	}
	return hdr[1], payload, nil
}

// readPayload reads size bytes into a buffer that starts at firstChunk
// and doubles as the bytes arrive, so memory follows what the peer sent,
// not what it claimed.
func readPayload(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, min(size, firstChunk))
	read := 0
	for {
		n, err := io.ReadFull(r, buf[read:])
		read += n
		if err == io.EOF && read > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if read == size {
			return buf, nil
		}
		grown := make([]byte, min(size, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// Cursor reads big-endian fields from one payload. Each read checks its
// length against the bytes left. The first short read sets a sticky
// ErrTruncated and empties the cursor, so every later read fails its own
// length check and returns zero; a decoder can read a run of fields and
// test Err once.
type Cursor struct {
	buf []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of payload.
func NewCursor(payload []byte) Cursor { return Cursor{buf: payload} }

func (c *Cursor) fail() {
	if c.err == nil {
		c.err = ErrTruncated
	}
	c.buf, c.off = nil, 0
}

// Remaining returns the unread byte count.
func (c *Cursor) Remaining() int { return len(c.buf) - c.off }

// Err returns the first read error, or nil.
func (c *Cursor) Err() error { return c.err }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.Remaining() < 1 {
		c.fail()
		return 0
	}
	v := c.buf[c.off]
	c.off++
	return v
}

// Uint16 reads a big-endian uint16.
func (c *Cursor) Uint16() uint16 {
	if c.Remaining() < 2 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(c.buf[c.off:])
	c.off += 2
	return v
}

// Uint32 reads a big-endian uint32.
func (c *Cursor) Uint32() uint32 {
	if c.Remaining() < 4 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

// Uint64 reads a big-endian uint64.
func (c *Cursor) Uint64() uint64 {
	if c.Remaining() < 8 {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}

// Bytes returns a view of the next n bytes, checking n against the bytes
// present, or nil after a failure. The view's capacity ends at its length.
func (c *Cursor) Bytes(n int) []byte {
	if n < 0 || c.Remaining() < n {
		c.fail()
		return nil
	}
	v := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return v
}

// String16 reads a uint16-prefixed string.
func (c *Cursor) String16() string {
	return string(c.Bytes(int(c.Uint16())))
}

// Blob32 reads a uint32-prefixed blob as a view of the payload; an empty
// blob reads as nil.
func (c *Cursor) Blob32() []byte {
	n := c.Uint32()
	if n == 0 {
		return nil
	}
	return c.Bytes(int(n))
}

// Done returns the first read error, or an error naming what was decoded
// if bytes are left over.
func (c *Cursor) Done(what string) error {
	if c.err != nil {
		return c.err
	}
	if n := c.Remaining(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %s", n, what)
	}
	return nil
}
