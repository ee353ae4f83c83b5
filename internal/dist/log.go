package dist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// replayLog is a shard's mutation log: every mutation record
// (wal.EncodePayload) since the topology was created, kept so that an
// endpoint that restarted empty can be replayed from entry 0. Replication
// reads the newest entry and a resync reads from the start in order, so
// only the newest entries are kept as they are; older ones are sealed,
// logSegment at a time, into compressed segments (row batches of one
// table compress about 3x). The log is what a closed insert loop grows on
// the coordinator.
//
// Safe for any number of readers and one appender at a time: mutations
// serialize on Coordinator.mutMu.
type replayLog struct {
	mu     sync.Mutex
	sealed [][]byte // DEFLATE of logSegment entries each; never modified
	tail   [][]byte // the newest entries, fewer than 2*logSegment
}

// openSegment is a reader's decoded copy of the sealed segment it read
// last, so that a replay in order decodes each segment once. It belongs
// to the reader; the zero value holds nothing.
type openSegment struct {
	idx     int
	entries [][]byte
}

// deflaters recycles compressors: one is some 600 KB of tables, far more
// than the segment it writes, and must not stay with every shard's log.
var deflaters = sync.Pool{New: func() any {
	// The level is valid, so NewWriter cannot fail.
	w, _ := flate.NewWriter(nil, flate.DefaultCompression)
	return w
}}

const logSegment = 64

func (l *replayLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)*logSegment + len(l.tail)
}

func (l *replayLog) append(m []byte) {
	l.mu.Lock()
	l.tail = append(l.tail, m)
	tail := l.tail
	l.mu.Unlock()
	if len(tail) < 2*logSegment {
		return
	}
	// Seal the older half — without the lock: no other append moves the
	// tail meanwhile, and readers still find these entries in it. The newer
	// half stays plain, which is where replication to a live endpoint reads.
	segment := seal(tail[:logSegment])
	l.mu.Lock()
	l.sealed = append(l.sealed, segment)
	l.tail = append(make([][]byte, 0, 2*logSegment), tail[logSegment:]...)
	l.mu.Unlock()
}

// entry returns entry i, decoding its segment into open (and outside the
// lock) when it is sealed and open holds another.
func (l *replayLog) entry(i int, open *openSegment) ([]byte, error) {
	l.mu.Lock()
	plain := len(l.sealed) * logSegment
	if i < 0 || i >= plain+len(l.tail) {
		l.mu.Unlock()
		return nil, fmt.Errorf("no log entry %d", i)
	}
	if i >= plain {
		m := l.tail[i-plain]
		l.mu.Unlock()
		return m, nil
	}
	idx := i / logSegment
	segment := l.sealed[idx]
	l.mu.Unlock()
	if open.entries == nil || open.idx != idx {
		entries, err := unseal(segment)
		if err != nil {
			return nil, fmt.Errorf("log segment %d: %w", idx, err)
		}
		*open = openSegment{idx: idx, entries: entries}
	}
	return open.entries[i%logSegment], nil
}

// seal length-prefixes entries and compresses them.
func seal(entries [][]byte) []byte {
	var raw []byte
	for _, m := range entries {
		raw = binary.AppendUvarint(raw, uint64(len(m)))
		raw = append(raw, m...)
	}
	var out bytes.Buffer
	w := deflaters.Get().(*flate.Writer)
	w.Reset(&out)
	// Writes to a bytes.Buffer do not fail.
	_, _ = w.Write(raw)
	_ = w.Close()
	deflaters.Put(w)
	return bytes.Clone(out.Bytes())
}

func unseal(segment []byte) ([][]byte, error) {
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(segment)))
	if err != nil {
		return nil, err
	}
	entries := make([][]byte, 0, logSegment)
	for len(raw) > 0 {
		n, w := binary.Uvarint(raw)
		if w <= 0 || uint64(len(raw)-w) < n {
			return nil, io.ErrUnexpectedEOF
		}
		entries = append(entries, raw[w:w+int(n):w+int(n)])
		raw = raw[w+int(n):]
	}
	if len(entries) != logSegment {
		return nil, fmt.Errorf("%d entries, want %d", len(entries), logSegment)
	}
	return entries, nil
}
