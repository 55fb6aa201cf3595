package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"robusttomo/internal/wire"
)

func decodeOne(t *testing.T, frame []byte) any {
	t.Helper()
	msg, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("ReadPeerFrame: %v", err)
	}
	return msg
}

func TestPeerRequestRoundTrip(t *testing.T) {
	cases := []PeerRequest{
		{Op: OpPing},
		{Op: OpStats, Origin: "node-a"},
		{Op: OpCacheProbe, Key: strings.Repeat("k", 64), Origin: "node-b"},
		{Op: OpExec, Forwarded: true, Key: "abc123", Origin: "node-c", Spec: []byte(`{"links":3}`)},
		{Op: OpExec, Key: "", Origin: "", Spec: nil},
	}
	for _, want := range cases {
		frame, err := EncodePeerRequest(nil, &want)
		if err != nil {
			t.Fatalf("encode %v: %v", want.Op, err)
		}
		got, ok := decodeOne(t, frame).(*PeerRequest)
		if !ok {
			t.Fatalf("decoded wrong type for %v", want.Op)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("round trip: got %+v want %+v", *got, want)
		}
	}
}

func TestPeerResponseRoundTrip(t *testing.T) {
	cases := []PeerResponse{
		{Status: StatusOK, Payload: []byte(`{"paths":[0,1]}`)},
		{Status: StatusMiss},
		{Status: StatusFailed, Err: "engine exploded"},
		{Status: StatusOverloaded, Err: "queue full, retry after 1s"},
	}
	for _, want := range cases {
		frame, err := EncodePeerResponse(nil, &want)
		if err != nil {
			t.Fatalf("encode %v: %v", want.Status, err)
		}
		got, ok := decodeOne(t, frame).(*PeerResponse)
		if !ok {
			t.Fatalf("decoded wrong type for %v", want.Status)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("round trip: got %+v want %+v", *got, want)
		}
	}
}

func TestPeerFrameStreaming(t *testing.T) {
	// Multiple frames on one reader decode in order — the connection
	// reuse path.
	var buf []byte
	var err error
	buf, err = EncodePeerRequest(buf, &PeerRequest{Op: OpPing, Origin: "a"})
	if err != nil {
		t.Fatal(err)
	}
	buf, err = EncodePeerResponse(buf, &PeerResponse{Status: StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	if _, ok := mustRead(t, br).(*PeerRequest); !ok {
		t.Fatal("first frame should be a request")
	}
	if _, ok := mustRead(t, br).(*PeerResponse); !ok {
		t.Fatal("second frame should be a response")
	}
}

func mustRead(t *testing.T, br *bufio.Reader) any {
	t.Helper()
	msg, err := ReadPeerFrame(br)
	if err != nil {
		t.Fatalf("ReadPeerFrame: %v", err)
	}
	return msg
}

func TestPeerFrameRejections(t *testing.T) {
	valid, err := EncodePeerRequest(nil, &PeerRequest{Op: OpExec, Key: "k", Origin: "o", Spec: []byte("{}")})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = 0xB5 // the agent plane's magic is not ours
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
			t.Fatal("accepted foreign magic")
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[1] = 0x7F
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
			t.Fatal("accepted unknown frame type")
		}
	})
	t.Run("oversized claim", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(bad[2:6], wire.MaxPayload+1)
		_, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(bad)))
		if !errors.Is(err, wire.ErrTooLarge) {
			t.Fatalf("oversized claim: %v, want wire.ErrTooLarge", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(valid[:len(valid)-1]))); err == nil {
			t.Fatal("accepted truncated payload")
		}
	})
	t.Run("unknown op", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[wire.HeaderSize] = 0x7F
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
			t.Fatal("accepted unknown op")
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[wire.HeaderSize+1] = 0x80
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
			t.Fatal("accepted undefined flag bits")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad = append(bad, 0xFF)
		binary.BigEndian.PutUint32(bad[2:6], uint32(len(bad)-wire.HeaderSize))
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
			t.Fatal("accepted trailing bytes inside the payload")
		}
	})
	t.Run("lying inner length", func(t *testing.T) {
		// The spec blob claims more bytes than the payload holds.
		req := &PeerRequest{Op: OpExec, Key: "k", Origin: "o", Spec: []byte("abcd")}
		frame, err := EncodePeerRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		// spec length field sits 4 bytes before the last 4 payload bytes
		binary.BigEndian.PutUint32(frame[len(frame)-8:len(frame)-4], 1<<30)
		if _, err := ReadPeerFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
			t.Fatal("accepted blob length beyond the frame")
		}
	})
	t.Run("encode rejects oversized strings", func(t *testing.T) {
		if _, err := EncodePeerRequest(nil, &PeerRequest{Op: OpPing, Key: strings.Repeat("x", maxPeerString+1)}); err == nil {
			t.Fatal("encoded over-long key")
		}
		if _, err := EncodePeerResponse(nil, &PeerResponse{Status: StatusFailed, Err: strings.Repeat("x", maxPeerString+1)}); err == nil {
			t.Fatal("encoded over-long error")
		}
	})
	t.Run("encode rejects unknown op and status", func(t *testing.T) {
		if _, err := EncodePeerRequest(nil, &PeerRequest{Op: 0x7F}); err == nil {
			t.Fatal("encoded unknown op")
		}
		if _, err := EncodePeerResponse(nil, &PeerResponse{Status: 0x7F}); err == nil {
			t.Fatal("encoded unknown status")
		}
	})
}
