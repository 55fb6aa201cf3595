package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"robusttomo/internal/wire"
)

// TestReadPeerFrameClaimedLengthAllocs checks that a 6-byte header
// claiming a 16 MiB payload, followed by EOF, costs the reader far less
// than the claim: any TCP client can send one on the peer port and hold
// its connection open.
func TestReadPeerFrameClaimedLengthAllocs(t *testing.T) {
	hdr := []byte{peerMagic, peerFrameRequest, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[2:], wire.MaxPayload)
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 5 {
		r := bufio.NewReader(bytes.NewReader(hdr))
		runtime.ReadMemStats(&before)
		_, err := ReadPeerFrame(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("accepted a frame without its payload")
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > 256<<10 {
		t.Fatalf("a bare %d-byte claim allocated %d bytes, want at most %d", wire.MaxPayload, best, 256<<10)
	}
}
