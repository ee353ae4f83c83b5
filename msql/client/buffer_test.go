package client

import (
	"bytes"
	"strings"
	"testing"
)

// A reply body is read into a pooled buffer: once warm, reading one and
// handing the buffer back allocates nothing, for 4 KiB as for 64 KiB.
func TestReplyBufferIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, size := range []int{4 << 10, 64 << 10} {
		body := []byte(strings.Repeat("x", size))
		r := bytes.NewReader(body)
		allocs := testing.AllocsPerRun(50, func() {
			r.Reset(body)
			buf, err := readReply(r)
			if err != nil || len(*buf) != size {
				t.Fatalf("read %d bytes, err %v", len(*buf), err)
			}
			putBody(buf)
		})
		if allocs != 0 {
			t.Errorf("%d-byte body: %v allocations per reply, want 0", size, allocs)
		}
	}
}
