package cluster

import (
	"bufio"
	"fmt"

	"robusttomo/internal/wire"
)

// Peer protocol wire format: internal/wire frames (header, size bound and
// bounded cursor) under magic byte 0xC9, frame type 0x01 (request) or
// 0x02 (response).
//
// Request payload:
//
//	op        byte   (exec / cache probe / stats / ping)
//	flags     byte   (bit 0: forwarded — receiver must run locally,
//	                  never re-forward; undefined bits are rejected)
//	keyLen    uint16, key bytes      (canonical job key)
//	originLen uint16, origin bytes   (submitting node, diagnostics)
//	specLen   uint32, spec bytes     (JSON service.JobSpec, exec only)
//
// Response payload:
//
//	status     byte   (ok / miss / failed / overloaded)
//	errLen     uint16, error bytes
//	payloadLen uint32, payload bytes (result or stats JSON)

// Binary peer-frame constants.
const (
	peerMagic = 0xC9

	peerFrameRequest  = 0x01
	peerFrameResponse = 0x02

	maxPeerString = 1<<16 - 1 // key / origin / error are uint16-prefixed

	// peerFlagForwarded marks a request already routed by the ring: the
	// receiver executes locally and never forwards again, which makes
	// forwarding loops impossible by construction.
	peerFlagForwarded = 0x01
	peerFlagsKnown    = peerFlagForwarded
)

// PeerOp selects what a peer request asks for.
type PeerOp byte

// Peer request operations.
const (
	// OpExec asks the receiver to run the job (answering from its cache
	// counts) and return the result payload.
	OpExec PeerOp = 0x01
	// OpCacheProbe asks only the receiver's cache: StatusMiss means the
	// caller should compute (or forward) instead.
	OpCacheProbe PeerOp = 0x02
	// OpStats asks for the receiver's NodeStats JSON.
	OpStats PeerOp = 0x03
	// OpPing is the health-gossip heartbeat.
	OpPing PeerOp = 0x04
)

// String implements fmt.Stringer.
func (op PeerOp) String() string {
	switch op {
	case OpExec:
		return "exec"
	case OpCacheProbe:
		return "cache-probe"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	default:
		return fmt.Sprintf("op(0x%02x)", byte(op))
	}
}

// PeerStatus is a peer response's outcome code.
type PeerStatus byte

// Peer response statuses.
const (
	// StatusOK carries the requested payload.
	StatusOK PeerStatus = 0x00
	// StatusMiss answers a cache probe whose key was cold.
	StatusMiss PeerStatus = 0x01
	// StatusFailed reports an execution or decode failure (Err explains).
	StatusFailed PeerStatus = 0x02
	// StatusOverloaded reports the receiver shed the job (its queue was
	// full); the caller should hedge, fall back, or retry later.
	StatusOverloaded PeerStatus = 0x03
)

// String implements fmt.Stringer.
func (s PeerStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusMiss:
		return "miss"
	case StatusFailed:
		return "failed"
	case StatusOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("status(0x%02x)", byte(s))
	}
}

// PeerRequest is one decoded peer-protocol request.
type PeerRequest struct {
	Op PeerOp
	// Forwarded marks a request already routed by the consistent-hash
	// ring; the receiver must execute locally and never re-forward.
	Forwarded bool
	// Key is the canonical job key (exec and cache-probe requests).
	Key string
	// Origin names the submitting node, for diagnostics and stats.
	Origin string
	// Spec is the JSON-encoded service.JobSpec of an exec request. A
	// decoded Spec is a view of its frame's payload.
	Spec []byte
}

// PeerResponse is one decoded peer-protocol response.
type PeerResponse struct {
	Status PeerStatus
	// Payload carries the result bytes (exec, cache hit) or stats JSON. A
	// decoded Payload is a view of its frame's payload.
	Payload []byte
	// Err explains failed and overloaded statuses.
	Err string
}

// EncodePeerRequest appends req's wire form to dst and returns the
// extended slice; dst is returned unchanged on error.
func EncodePeerRequest(dst []byte, req *PeerRequest) ([]byte, error) {
	switch req.Op {
	case OpExec, OpCacheProbe, OpStats, OpPing:
	default:
		return dst, fmt.Errorf("cluster: cannot encode unknown peer op 0x%02x", byte(req.Op))
	}
	if len(req.Key) > maxPeerString {
		return dst, fmt.Errorf("cluster: key %d bytes (max %d)", len(req.Key), maxPeerString)
	}
	if len(req.Origin) > maxPeerString {
		return dst, fmt.Errorf("cluster: origin %d bytes (max %d)", len(req.Origin), maxPeerString)
	}
	start := len(dst)
	dst = wire.Begin(dst, peerMagic, peerFrameRequest)
	flags := byte(0)
	if req.Forwarded {
		flags |= peerFlagForwarded
	}
	dst = append(dst, byte(req.Op), flags)
	dst = wire.AppendString16(dst, req.Key)
	dst = wire.AppendString16(dst, req.Origin)
	dst = wire.AppendBlob32(dst, req.Spec)
	return wire.Seal(dst, start)
}

// EncodePeerResponse appends resp's wire form to dst and returns the
// extended slice; dst is returned unchanged on error.
func EncodePeerResponse(dst []byte, resp *PeerResponse) ([]byte, error) {
	switch resp.Status {
	case StatusOK, StatusMiss, StatusFailed, StatusOverloaded:
	default:
		return dst, fmt.Errorf("cluster: cannot encode unknown peer status 0x%02x", byte(resp.Status))
	}
	if len(resp.Err) > maxPeerString {
		return dst, fmt.Errorf("cluster: error string %d bytes (max %d)", len(resp.Err), maxPeerString)
	}
	start := len(dst)
	dst = wire.Begin(dst, peerMagic, peerFrameResponse)
	dst = append(dst, byte(resp.Status))
	dst = wire.AppendString16(dst, resp.Err)
	dst = wire.AppendBlob32(dst, resp.Payload)
	return wire.Seal(dst, start)
}

// decodePeerRequest decodes a request frame payload.
func decodePeerRequest(payload []byte) (*PeerRequest, error) {
	c := wire.NewCursor(payload)
	op, flags := PeerOp(c.Byte()), c.Byte()
	switch op {
	case OpExec, OpCacheProbe, OpStats, OpPing:
	default:
		return nil, fmt.Errorf("cluster: unknown peer op 0x%02x", byte(op))
	}
	if flags&^byte(peerFlagsKnown) != 0 {
		return nil, fmt.Errorf("cluster: unknown request flags 0x%02x", flags)
	}
	req := &PeerRequest{Op: op, Forwarded: flags&peerFlagForwarded != 0}
	req.Key = c.String16()
	req.Origin = c.String16()
	req.Spec = c.Blob32()
	if err := c.Done("peer request"); err != nil {
		return nil, err
	}
	return req, nil
}

// decodePeerResponse decodes a response frame payload.
func decodePeerResponse(payload []byte) (*PeerResponse, error) {
	c := wire.NewCursor(payload)
	status := PeerStatus(c.Byte())
	switch status {
	case StatusOK, StatusMiss, StatusFailed, StatusOverloaded:
	default:
		return nil, fmt.Errorf("cluster: unknown peer status 0x%02x", byte(status))
	}
	resp := &PeerResponse{Status: status}
	resp.Err = c.String16()
	resp.Payload = c.Blob32()
	if err := c.Done("peer response"); err != nil {
		return nil, err
	}
	return resp, nil
}

// ReadPeerFrame reads one peer frame from r and returns the decoded
// *PeerRequest or *PeerResponse.
func ReadPeerFrame(r *bufio.Reader) (any, error) {
	typ, payload, err := wire.ReadFrame(r, peerMagic)
	if err != nil {
		return nil, err
	}
	switch typ {
	case peerFrameRequest:
		return decodePeerRequest(payload)
	case peerFrameResponse:
		return decodePeerResponse(payload)
	default:
		return nil, fmt.Errorf("cluster: unknown peer frame type 0x%02x", typ)
	}
}
