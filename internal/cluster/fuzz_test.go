package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"robusttomo/internal/wire"
)

// FuzzPeerFrame throws arbitrary bytes at the peer-frame reader: it
// must never panic, never accept a payload past wire.MaxPayload, and any
// frame it does accept must re-encode to the identical bytes (the codec
// has one canonical form). This is the surface a hostile or corrupted
// peer reaches first.
func FuzzPeerFrame(f *testing.F) {
	seed := func(msg any) []byte {
		switch m := msg.(type) {
		case *PeerRequest:
			b, _ := EncodePeerRequest(nil, m)
			return b
		case *PeerResponse:
			b, _ := EncodePeerResponse(nil, m)
			return b
		}
		return nil
	}
	f.Add(seed(&PeerRequest{Op: OpPing}))
	f.Add(seed(&PeerRequest{Op: OpExec, Forwarded: true, Key: "deadbeef", Origin: "node-a", Spec: []byte(`{"links":3,"budget":4}`)}))
	f.Add(seed(&PeerRequest{Op: OpCacheProbe, Key: strings.Repeat("f", 64)}))
	f.Add(seed(&PeerResponse{Status: StatusOK, Payload: []byte(`{"paths":[1,2,3]}`)}))
	f.Add(seed(&PeerResponse{Status: StatusFailed, Err: "no such engine"}))
	f.Add([]byte{peerMagic, peerFrameRequest, 0, 0, 0, 0})             // empty payload
	f.Add([]byte{peerMagic, peerFrameRequest, 0xFF, 0xFF, 0xFF})       // truncated header
	f.Add([]byte{peerMagic, 0x7F, 0, 0, 0, 1, 0x00})                   // unknown frame type
	f.Add([]byte{0xB5, peerFrameRequest, 0, 0, 0, 0})                  // agent-plane magic
	f.Add([]byte{peerMagic, peerFrameRequest, 0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claim
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // rejection is fine; the invariant is no panic
		}
		var reenc []byte
		switch m := msg.(type) {
		case *PeerRequest:
			reenc, err = EncodePeerRequest(nil, m)
		case *PeerResponse:
			reenc, err = EncodePeerResponse(nil, m)
		default:
			t.Fatalf("ReadPeerFrame returned %T", msg)
		}
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		size := binary.BigEndian.Uint32(data[2:6])
		whole := data[:wire.HeaderSize+int(size)]
		if !bytes.Equal(reenc, whole) {
			t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", whole, reenc)
		}
	})
}

// FuzzPeerRoundTrip drives the codec with structured inputs: any
// request a node can express must survive encode → decode with every
// field intact, because routing correctness (the Forwarded flag, the
// key) depends on it.
func FuzzPeerRoundTrip(f *testing.F) {
	f.Add(byte(OpPing), false, "", "", []byte(nil))
	f.Add(byte(OpExec), true, "0123456789abcdef", "node-1", []byte(`{"links":6,"budget":4.125}`))
	f.Add(byte(OpCacheProbe), false, strings.Repeat("k", 1000), "a peer with spaces", []byte{})
	f.Add(byte(OpStats), true, "\x00\xff", "名前", []byte{0, 1, 2, 255})
	f.Fuzz(func(t *testing.T, op byte, forwarded bool, key, origin string, spec []byte) {
		req := &PeerRequest{Op: PeerOp(op), Forwarded: forwarded, Key: key, Origin: origin, Spec: spec}
		frame, err := EncodePeerRequest(nil, req)
		if err != nil {
			// Unknown ops and over-long strings must be rejected at
			// encode time, never silently truncated.
			return
		}
		msg, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		got, ok := msg.(*PeerRequest)
		if !ok {
			t.Fatalf("request decoded as %T", msg)
		}
		// Encoding normalizes empty spec to nil.
		want := *req
		if len(want.Spec) == 0 {
			want.Spec = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("round trip: got %+v want %+v", *got, want)
		}
	})
}
