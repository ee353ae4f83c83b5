package dist

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The replay log seals its older entries into compressed segments; every
// entry reads back as appended, in any order, across segment boundaries,
// also by a reader that replays from the start while the log grows.
func TestReplayLogSealsAndReadsBack(t *testing.T) {
	var l replayLog
	want := make([][]byte, 5*logSegment+7)
	for i := range want {
		want[i] = fmt.Appendf(nil, "payload-%d-%s", i, strings.Repeat("x", i%9))
		if i%50 == 0 {
			want[i] = fmt.Appendf(nil, "CREATE TABLE t%d (a INT)", i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a resync: from the start, in order, behind the appender
		defer wg.Done()
		var open openSegment
		for i := 0; i < len(want); {
			if i >= l.len() {
				runtime.Gosched()
				continue
			}
			if got, err := l.entry(i, &open); err != nil || !bytes.Equal(got, want[i]) {
				t.Errorf("replay of entry %d = %+v, %v", i, got, err)
				return
			}
			i++
		}
	}()
	var open openSegment
	for i := range want {
		l.append(want[i])
		if l.len() != i+1 {
			t.Fatalf("len = %d after %d appends", l.len(), i+1)
		}
		// Replication reads the entry just appended.
		if got, err := l.entry(i, &open); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("entry %d read back as %+v, %v", i, got, err)
		}
	}
	wg.Wait()
	if len(l.sealed) != 4 || len(l.tail) >= 2*logSegment {
		t.Fatalf("%d sealed segments, %d tail entries", len(l.sealed), len(l.tail))
	}
	for _, i := range []int{0, logSegment - 1, logSegment, 3*logSegment + 5, 0, len(want) - 1} {
		if got, err := l.entry(i, &open); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("entry %d = %+v, %v; want %+v", i, got, err, want[i])
		}
	}
	for _, i := range []int{-1, len(want)} {
		if _, err := l.entry(i, &open); err == nil || !strings.Contains(err.Error(), "no log entry") {
			t.Fatalf("entry %d: err = %v", i, err)
		}
	}
	// A segment that does not decode is reported as that.
	l.sealed[1] = l.sealed[1][:len(l.sealed[1])/2]
	if _, err := l.entry(logSegment, &open); err == nil || !strings.Contains(err.Error(), "log segment 1") {
		t.Fatalf("truncated segment: err = %v", err)
	}
}
