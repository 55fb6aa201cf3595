package agent

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Batched multi-path probe frames: the collection plane's wire format.
// One frame carries an entire path batch for one monitor and one epoch, so
// a monitor-epoch costs one syscall and one codec pass.
//
// Two encodings share the stream and may be mixed frame-by-frame:
//
//   - Binary (default): a length-prefixed frame
//
//     offset 0      magic byte 0xB5
//     offset 1      frame type (0x01 probe batch, 0x02 result batch)
//     offset 2..5   payload length, uint32 big-endian, ≤ maxFrame
//     offset 6..    payload (fixed-width big-endian fields, layouts below)
//
//   - JSON fallback (debuggability): the same batch as one JSON line,
//     type "batch" / "batchResult", read through the bounded readLine.
//
// The magic byte 0xB5 can never start a JSON line (JSON text begins with
// '{' here), so a reader distinguishes the encodings by peeking one byte.
// Every length and count is validated against what the frame can actually
// hold before any allocation, so a hostile peer cannot force the reader
// past maxFrame no matter what lengths it claims.

// Batch message types (JSON fallback encoding).
const (
	MsgBatch       MsgType = "batch"       // NOC → monitor: probe a path batch
	MsgBatchResult MsgType = "batchResult" // monitor → NOC: batch outcomes
)

// Binary frame constants.
const (
	frameMagic  = 0xB5
	frameHeader = 6 // magic + type + uint32 length

	frameTypeProbe  = 0x01
	frameTypeResult = 0x02

	// maxFrame bounds one binary frame payload (16 MiB ≈ 600k result
	// entries): far above any real batch, far below an allocation attack.
	maxFrame = 1 << 24
)

// Per-field limits of the binary layout.
const (
	maxBatchEntries = 1 << 20   // paths or results per frame
	maxLinksPerPath = 1<<16 - 1 // link count is a uint16
	maxMonitorName  = 1<<16 - 1 // name length is a uint16
	maxFieldValue   = 1<<32 - 1 // path and link IDs are uint32s
	probeEntryMin   = 4 + 2     // pathID + link count, links follow
	resultEntrySize = 4 + 1 + 8 // pathID + ok flag + float64 bits
)

// Encoding selects the wire form of batch frames.
type Encoding int

// Encodings.
const (
	// EncodingBinary is the length-prefixed binary frame codec (default).
	EncodingBinary Encoding = iota
	// EncodingJSON writes each batch as one JSON line — 5-10x slower, but
	// every frame is readable in a packet capture or a wire log.
	EncodingJSON
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncodingBinary:
		return "binary"
	case EncodingJSON:
		return "json"
	default:
		return fmt.Sprintf("encoding(%d)", int(e))
	}
}

// ParseEncoding maps the CLI spelling onto an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "binary":
		return EncodingBinary, nil
	case "json":
		return EncodingJSON, nil
	default:
		return 0, fmt.Errorf("agent: unknown encoding %q (binary, json)", s)
	}
}

// BatchPath is one path inside a probe batch.
type BatchPath struct {
	PathID int   `json:"pathId"`
	Links  []int `json:"links"`
}

// ProbeBatch asks a monitor to measure a whole path batch for one epoch in
// a single frame.
type ProbeBatch struct {
	Type  MsgType `json:"type"` // MsgBatch
	Epoch int     `json:"epoch"`
	// Monitor names the logical monitor session this batch belongs to.
	// Transports may multiplex many sessions over one TCP connection; the
	// server echoes the name back so results stay attributable.
	Monitor string      `json:"monitor,omitempty"`
	Paths   []BatchPath `json:"paths"`

	// enc records the encoding the frame arrived in, so replies match it.
	enc Encoding
}

// BatchResult is one path outcome inside a result batch. Value carries no
// omitempty: 0 is a legitimate measurement, and dropping it from the JSON
// fallback would make it indistinguishable from an absent field
// (regression-tested by TestBatchResultZeroValueOnWire).
type BatchResult struct {
	PathID int     `json:"pathId"`
	OK     bool    `json:"ok"`
	Value  float64 `json:"value"`
}

// ResultBatch reports a probe batch's outcomes in a single frame.
type ResultBatch struct {
	Type    MsgType       `json:"type"` // MsgBatchResult
	Epoch   int           `json:"epoch"`
	Monitor string        `json:"monitor"`
	Results []BatchResult `json:"results"`
}

// errFrameTooLarge marks a frame rejected for claiming or needing more
// than maxFrame payload bytes.
var errFrameTooLarge = errors.New("agent: frame exceeds size bound")

// appendUint16/32/64 are the fixed-width big-endian writers.
func appendUint16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendUint32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendUint64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// EncodeProbeBatch appends b's wire form (in enc encoding) to dst and
// returns the extended slice. Binary encoding rejects fields outside the
// layout's fixed widths.
func EncodeProbeBatch(dst []byte, enc Encoding, b *ProbeBatch) ([]byte, error) {
	if enc == EncodingJSON {
		return appendJSONLine(dst, b)
	}
	if len(b.Paths) > maxBatchEntries {
		return dst, fmt.Errorf("agent: probe batch has %d paths (max %d)", len(b.Paths), maxBatchEntries)
	}
	if len(b.Monitor) > maxMonitorName {
		return dst, fmt.Errorf("agent: monitor name %d bytes (max %d)", len(b.Monitor), maxMonitorName)
	}
	start := len(dst)
	dst = append(dst, frameMagic, frameTypeProbe, 0, 0, 0, 0)
	dst = appendUint64(dst, uint64(int64(b.Epoch)))
	dst = appendUint16(dst, uint16(len(b.Monitor)))
	dst = append(dst, b.Monitor...)
	dst = appendUint32(dst, uint32(len(b.Paths)))
	for i := range b.Paths {
		p := &b.Paths[i]
		if p.PathID < 0 || int64(p.PathID) > maxFieldValue {
			return dst[:start], fmt.Errorf("agent: path ID %d outside uint32 wire range", p.PathID)
		}
		if len(p.Links) > maxLinksPerPath {
			return dst[:start], fmt.Errorf("agent: path %d has %d links (max %d)", p.PathID, len(p.Links), maxLinksPerPath)
		}
		dst = appendUint32(dst, uint32(p.PathID))
		dst = appendUint16(dst, uint16(len(p.Links)))
		for _, l := range p.Links {
			if l < 0 || int64(l) > maxFieldValue {
				return dst[:start], fmt.Errorf("agent: link ID %d outside uint32 wire range", l)
			}
			dst = appendUint32(dst, uint32(l))
		}
	}
	return sealFrame(dst, start)
}

// EncodeResultBatch appends b's wire form (in enc encoding) to dst. The
// binary layout carries float64 bit patterns verbatim (NaN and ±Inf
// included); the JSON fallback inherits encoding/json's rejection of
// unencodable values.
func EncodeResultBatch(dst []byte, enc Encoding, b *ResultBatch) ([]byte, error) {
	if enc == EncodingJSON {
		return appendJSONLine(dst, b)
	}
	if len(b.Results) > maxBatchEntries {
		return dst, fmt.Errorf("agent: result batch has %d results (max %d)", len(b.Results), maxBatchEntries)
	}
	if len(b.Monitor) > maxMonitorName {
		return dst, fmt.Errorf("agent: monitor name %d bytes (max %d)", len(b.Monitor), maxMonitorName)
	}
	start := len(dst)
	dst = append(dst, frameMagic, frameTypeResult, 0, 0, 0, 0)
	dst = appendUint64(dst, uint64(int64(b.Epoch)))
	dst = appendUint16(dst, uint16(len(b.Monitor)))
	dst = append(dst, b.Monitor...)
	dst = appendUint32(dst, uint32(len(b.Results)))
	for i := range b.Results {
		r := &b.Results[i]
		if r.PathID < 0 || int64(r.PathID) > maxFieldValue {
			return dst[:start], fmt.Errorf("agent: path ID %d outside uint32 wire range", r.PathID)
		}
		dst = appendUint32(dst, uint32(r.PathID))
		flag := byte(0)
		if r.OK {
			flag = 1
		}
		dst = append(dst, flag)
		dst = appendUint64(dst, math.Float64bits(r.Value))
	}
	return sealFrame(dst, start)
}

// sealFrame back-patches the payload length of the frame that started at
// start, rejecting payloads beyond maxFrame.
func sealFrame(dst []byte, start int) ([]byte, error) {
	payload := len(dst) - start - frameHeader
	if payload > maxFrame {
		return dst[:start], fmt.Errorf("%w: %d-byte payload", errFrameTooLarge, payload)
	}
	binary.BigEndian.PutUint32(dst[start+2:start+6], uint32(payload))
	return dst, nil
}

// frameDecoder walks a binary frame payload with bounds checking.
type frameDecoder struct {
	buf []byte
	off int
}

var errFrameTruncated = errors.New("agent: truncated frame")

func (d *frameDecoder) remaining() int { return len(d.buf) - d.off }

func (d *frameDecoder) uint16() (uint16, error) {
	if d.remaining() < 2 {
		return 0, errFrameTruncated
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *frameDecoder) uint32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, errFrameTruncated
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *frameDecoder) uint64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, errFrameTruncated
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *frameDecoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, errFrameTruncated
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *frameDecoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, errFrameTruncated
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v, nil
}

// header reads the shared epoch + monitor-name prefix of both batch
// payloads.
func (d *frameDecoder) header() (epoch int, monitor string, err error) {
	e, err := d.uint64()
	if err != nil {
		return 0, "", err
	}
	nameLen, err := d.uint16()
	if err != nil {
		return 0, "", err
	}
	name, err := d.bytes(int(nameLen))
	if err != nil {
		return 0, "", err
	}
	return int(int64(e)), string(name), nil
}

// decodeProbeBatch decodes a binary probe-batch payload. Entry counts are
// validated against the bytes actually present before any allocation.
func decodeProbeBatch(payload []byte) (*ProbeBatch, error) {
	d := frameDecoder{buf: payload}
	epoch, monitor, err := d.header()
	if err != nil {
		return nil, err
	}
	count, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if int64(count) > maxBatchEntries || int(count)*probeEntryMin > d.remaining() {
		return nil, fmt.Errorf("agent: probe batch claims %d paths in %d bytes", count, d.remaining())
	}
	b := &ProbeBatch{Type: MsgBatch, Epoch: epoch, Monitor: monitor, Paths: make([]BatchPath, count)}
	for i := range b.Paths {
		id, err := d.uint32()
		if err != nil {
			return nil, err
		}
		nlinks, err := d.uint16()
		if err != nil {
			return nil, err
		}
		if int(nlinks)*4 > d.remaining() {
			return nil, fmt.Errorf("agent: path entry claims %d links in %d bytes", nlinks, d.remaining())
		}
		links := make([]int, nlinks)
		for j := range links {
			l, err := d.uint32()
			if err != nil {
				return nil, err
			}
			links[j] = int(l)
		}
		b.Paths[i] = BatchPath{PathID: int(id), Links: links}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("agent: %d trailing bytes after probe batch", d.remaining())
	}
	return b, nil
}

// decodeResultBatch decodes a binary result-batch payload.
func decodeResultBatch(payload []byte) (*ResultBatch, error) {
	d := frameDecoder{buf: payload}
	epoch, monitor, err := d.header()
	if err != nil {
		return nil, err
	}
	count, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if int64(count) > maxBatchEntries || int(count)*resultEntrySize != d.remaining() {
		return nil, fmt.Errorf("agent: result batch claims %d results in %d bytes", count, d.remaining())
	}
	b := &ResultBatch{Type: MsgBatchResult, Epoch: epoch, Monitor: monitor, Results: make([]BatchResult, count)}
	for i := range b.Results {
		id, _ := d.uint32()
		flag, _ := d.byte()
		bits, _ := d.uint64()
		b.Results[i] = BatchResult{PathID: int(id), OK: flag != 0, Value: math.Float64frombits(bits)}
	}
	return b, nil
}

// readMessage reads one batch message — a binary frame or a JSON
// fallback line — and returns the decoded *ProbeBatch or *ResultBatch. The
// two encodings may interleave freely on one stream.
func readMessage(r *bufio.Reader) (any, error) {
	head, err := r.Peek(1)
	if err != nil {
		return nil, err
	}
	if head[0] == frameMagic {
		return readBinaryFrame(r)
	}
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	mt, err := peekType(line)
	if err != nil {
		return nil, err
	}
	switch mt {
	case MsgBatch:
		var b ProbeBatch
		if err := unmarshalStrict(line, &b); err != nil {
			return nil, err
		}
		b.enc = EncodingJSON
		return &b, nil
	case MsgBatchResult:
		var b ResultBatch
		if err := unmarshalStrict(line, &b); err != nil {
			return nil, err
		}
		return &b, nil
	default:
		return nil, fmt.Errorf("agent: unknown message type %q", mt)
	}
}

// readBinaryFrame reads one length-prefixed binary frame. The claimed
// payload length is checked against maxFrame before any allocation, so a
// hostile 4 GiB length prefix costs nothing.
func readBinaryFrame(r *bufio.Reader) (any, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != frameMagic {
		return nil, fmt.Errorf("agent: bad frame magic 0x%02x", hdr[0])
	}
	size := binary.BigEndian.Uint32(hdr[2:6])
	if size > maxFrame {
		return nil, fmt.Errorf("%w: claimed %d-byte payload", errFrameTooLarge, size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("agent: short frame payload: %w", err)
	}
	switch hdr[1] {
	case frameTypeProbe:
		return decodeProbeBatch(payload)
	case frameTypeResult:
		return decodeResultBatch(payload)
	default:
		return nil, fmt.Errorf("agent: unknown binary frame type 0x%02x", hdr[1])
	}
}
