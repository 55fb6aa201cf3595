package agent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"robusttomo/internal/wire"
)

// TestReadMessageClaimedLengthAllocs checks that a 6-byte header claiming
// a 16 MiB payload, followed by EOF, costs the reader far less than the
// claim: the payload buffer grows with the bytes that arrive.
func TestReadMessageClaimedLengthAllocs(t *testing.T) {
	hdr := []byte{frameMagic, frameTypeResult, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[2:], wire.MaxPayload)
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 5 {
		r := bufio.NewReader(bytes.NewReader(hdr))
		runtime.ReadMemStats(&before)
		_, err := readMessage(r)
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
