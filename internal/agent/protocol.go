// Package agent is the measurement-collection substrate: monitor agents
// that answer probes over TCP and a Network Operations Center (NOC)
// collector, StreamNOC, that schedules epochs, probes the selected paths
// through the monitors, and hands the surviving end-to-end measurements to
// the tomography stack.
//
// The paper assumes this plumbing exists ("monitors probe each other to
// collect e2e measurements ... centrally collected at a NOC"); this package
// builds it as an in-process distributed system: every monitor is a real
// TCP server answering batched probe frames (length-prefixed binary by
// default, one JSON line per batch for debugging), and the NOC sends one
// frame per monitor per epoch over persistent sharded sessions. The
// network itself is simulated — a probe's measured value is the sum of the
// ground-truth link metrics on its path, and a probe fails when any link
// on the path is down in the current epoch — which preserves exactly the
// linear-system semantics (Eq. 1) the algorithms consume.
package agent

import (
	"bufio"
	"encoding/json"
	"fmt"
)

// MsgType names the JSON fallback's batch messages (MsgBatch,
// MsgBatchResult).
type MsgType string

// appendJSONLine appends v as one JSON protocol line, newline included.
func appendJSONLine(dst []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("agent: marshal: %w", err)
	}
	dst = append(dst, data...)
	return append(dst, '\n'), nil
}

// maxLine bounds one JSON protocol line (including the newline). The bound
// is enforced *during* the read: the loop below accumulates at most one
// bufio buffer past the limit before erroring, so a malicious peer cannot
// force an unbounded allocation by never sending a newline (the old
// ReadBytes-then-check shape buffered the whole line first).
const maxLine = 1 << 20

// readLine reads one protocol line, bounded to keep malicious peers from
// exhausting memory.
func readLine(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if len(line)+len(frag) > maxLine {
			return nil, fmt.Errorf("agent: oversized message (> %d bytes)", maxLine)
		}
		line = append(line, frag...)
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue // keep accumulating, bound checked per fragment
		default:
			return nil, err
		}
	}
}

// peekType extracts the type field without committing to a full decode.
func peekType(line []byte) (MsgType, error) {
	var head struct {
		Type MsgType `json:"type"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return "", fmt.Errorf("agent: malformed message: %w", err)
	}
	return head.Type, nil
}

func unmarshalStrict(line []byte, v any) error {
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("agent: decode: %w", err)
	}
	return nil
}
