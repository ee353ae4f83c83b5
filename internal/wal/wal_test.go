package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func intT() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindInt} }

// createRec / insertRec build the tiny workload vocabulary the tests
// share: one table t(a INTEGER), one row per insert carrying its index.
func createRec() *Record {
	return &Record{Type: RecCreateTable, Name: "t", Cols: []string{"a"}, Types: []sqltypes.Type{intT()}}
}

func insertRec(i int64) *Record {
	return &Record{Type: RecInsert, Name: "t", Rows: [][]sqltypes.Value{{sqltypes.NewInt(i)}}}
}

// wantRows builds the expected rows of t after inserts 0..n-1.
func wantRows(n int) [][]sqltypes.Value {
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i))}
	}
	return rows
}

// checkPrefix asserts dump is table t with exactly rows 0..k-1 for some
// k with lo ≤ k ≤ hi, and returns k.
func checkPrefix(t *testing.T, dump *StoreDump, lo, hi int) int {
	t.Helper()
	if len(dump.Tables) != 1 || !strings.EqualFold(dump.Tables[0].Name, "t") {
		t.Fatalf("recovered tables = %+v, want just t", dump.Tables)
	}
	got := dump.Tables[0].Rows
	k := len(got)
	if k < lo || k > hi {
		t.Fatalf("recovered %d rows, want between %d and %d", k, lo, hi)
	}
	if k > 0 && !reflect.DeepEqual(got, wantRows(k)) {
		t.Fatalf("recovered rows are not the prefix 0..%d: %v", k-1, got)
	}
	return k
}

// mustOpen opens dir and returns the recovered store with its log
// folded in.
func mustOpen(t *testing.T, dir string, opts Options) (*Manager, *StoreDump) {
	t.Helper()
	m, dump, err := Open(dir, opts)
	if err == nil {
		dump, err = folded(dump)
	}
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m, dump
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Seq: 1, Type: RecCreateTable, Name: "Orders", OrReplace: true,
			Cols:  []string{"a", "b", "c", "d", "e"},
			Types: []sqltypes.Type{intT(), {Kind: sqltypes.KindFloat}, {Kind: sqltypes.KindString}, {Kind: sqltypes.KindDate}, {Kind: sqltypes.KindBool}}},
		{Seq: 2, Type: RecCreateView, Name: "V", SQL: "SELECT *, SUM(a) AS MEASURE m FROM Orders"},
		{Seq: 3, Type: RecDrop, Kind: "VIEW", Name: "V"},
		{Seq: 4, Type: RecInsert, Name: "Orders", Rows: [][]sqltypes.Value{
			{sqltypes.NewInt(-42), sqltypes.NewFloat(1.5), sqltypes.NewString("x'y"), sqltypes.NewDate(2024, 2, 29), sqltypes.NewBool(true)},
			{sqltypes.Null(sqltypes.KindInt), sqltypes.Null(sqltypes.KindUnknown), sqltypes.NewString(""), sqltypes.Null(sqltypes.KindDate), sqltypes.NewBool(false)},
		}},
		{Seq: 5, Type: RecTruncate, Name: "Orders"},
		{Seq: 6, Type: RecInsert, Name: "Orders", Rows: nil},
	}
	for _, rec := range recs {
		framed := EncodeRecord(rec)
		got, err := DecodePayload(framed[recHeaderLen:])
		if err != nil {
			t.Fatalf("decode %s: %v", rec.Type, err)
		}
		// Normalize nil-vs-empty rows for the comparison.
		if len(rec.Rows) == 0 {
			rec.Rows, got.Rows = nil, nil
		}
		if !reflect.DeepEqual(rec, got) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", rec.Type, got, rec)
		}
	}
}

func TestEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	m, dump := mustOpen(t, dir, Options{})
	if len(dump.Tables) != 0 || len(dump.Views) != 0 {
		t.Fatalf("fresh dir produced non-empty dump: %+v", dump)
	}
	ri := m.Recovery()
	if ri.FromSnapshot || ri.Records != 0 || ri.TornTailBytes != 0 {
		t.Fatalf("fresh dir recovery info: %+v", ri)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Header-only log reopens clean too.
	m2, dump2 := mustOpen(t, dir, Options{})
	defer m2.Close()
	if len(dump2.Tables) != 0 || m2.Recovery().TornTailBytes != 0 {
		t.Fatalf("header-only reopen: dump=%+v info=%+v", dump2, m2.Recovery())
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if err := m.Append(createRec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := m.StatsSnapshot()
	if st.Appends != 11 || st.DurableSeq != 11 || st.Fsyncs == 0 {
		t.Fatalf("stats after 11 synced appends: %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, dump := mustOpen(t, dir, Options{})
	defer m2.Close()
	checkPrefix(t, dump, 10, 10)
	ri := m2.Recovery()
	if ri.Records != 11 || ri.FromSnapshot || ri.TornTailBytes != 0 {
		t.Fatalf("recovery info: %+v", ri)
	}
	if dump.Version != 11 {
		t.Fatalf("replayed version = %d, want 11", dump.Version)
	}
}

func TestCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	m, dump := mustOpen(t, dir, Options{Sync: SyncAlways})
	if err := m.Append(createRec()); err != nil {
		t.Fatal(err)
	}
	dump.fold(&Record{Type: RecCreateTable, Name: "t", Cols: []string{"a"}, Types: []sqltypes.Type{intT()}})
	for i := 0; i < 5; i++ {
		m.Append(insertRec(int64(i)))
		dump.fold(insertRec(int64(i)))
	}
	if err := m.Checkpoint(dump); err != nil {
		t.Fatal(err)
	}
	if st := m.StatsSnapshot(); st.Checkpoints != 1 || st.WALBytes != int64(len(walMagic)) {
		t.Fatalf("stats after checkpoint: %+v", st)
	}

	// Snapshot-only recovery.
	m.Close()
	m2, d2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	checkPrefix(t, d2, 5, 5)
	ri := m2.Recovery()
	if !ri.FromSnapshot || ri.Records != 0 || ri.SnapshotSeq != 6 {
		t.Fatalf("snapshot-only recovery info: %+v", ri)
	}

	// Snapshot + tail recovery: append more after the checkpoint.
	for i := 5; i < 9; i++ {
		if err := m2.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	m2.Close()
	m3, d3 := mustOpen(t, dir, Options{})
	defer m3.Close()
	checkPrefix(t, d3, 9, 9)
	if ri := m3.Recovery(); !ri.FromSnapshot || ri.Records != 4 {
		t.Fatalf("snapshot+tail recovery info: %+v", ri)
	}
	// Sequence numbers continue across the checkpoint.
	if seq := m3.StatsSnapshot().Seq; seq != 10 {
		t.Fatalf("seq after recovery = %d, want 10", seq)
	}
}

// TestVersionRestore: the dump version survives checkpoint + replay so
// the engine can restore catalog versioning.
func TestVersionRestore(t *testing.T) {
	dir := t.TempDir()
	m, dump := mustOpen(t, dir, Options{})
	m.Append(createRec())
	dump.fold(createRec())
	dump.Version = 41 // pretend the engine was at version 41
	if err := m.Checkpoint(dump); err != nil {
		t.Fatal(err)
	}
	m.Append(insertRec(0))
	m.Close()
	_, d2 := mustOpen(t, dir, Options{})
	if d2.Version != 42 { // 41 from snapshot + 1 replayed insert
		t.Fatalf("recovered version = %d, want 42", d2.Version)
	}
}

func TestTornFinalRecord(t *testing.T) {
	for _, cut := range []string{"truncate", "flip"} {
		t.Run(cut, func(t *testing.T) {
			dir := t.TempDir()
			m, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
			m.Append(createRec())
			for i := 0; i < 5; i++ {
				m.Append(insertRec(int64(i)))
			}
			m.Close()

			log := filepath.Join(dir, logName)
			data, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			bounds := recordBounds(t, data)
			last := bounds[len(bounds)-1]
			switch cut {
			case "truncate":
				// Cut into the middle of the final record.
				data = data[:last.off+recHeaderLen+2]
			case "flip":
				// Flip a payload byte of the final record; CRC catches it.
				data[last.off+recHeaderLen+1] ^= 0xff
			}
			if err := os.WriteFile(log, data, 0o644); err != nil {
				t.Fatal(err)
			}

			m2, dump := mustOpen(t, dir, Options{})
			defer m2.Close()
			checkPrefix(t, dump, 4, 4)
			ri := m2.Recovery()
			if ri.TornTailBytes == 0 {
				t.Fatalf("torn tail not reported: %+v", ri)
			}
			// The truncation is clean: appending and re-recovering works.
			if err := m2.Append(insertRec(4)); err != nil {
				t.Fatal(err)
			}
			m2.Close()
			m3, d3 := mustOpen(t, dir, Options{})
			defer m3.Close()
			checkPrefix(t, d3, 5, 5)
		})
	}
}

func TestCorruptMidLogIsError(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	m.Append(createRec())
	for i := 0; i < 5; i++ {
		m.Append(insertRec(int64(i)))
	}
	m.Close()

	log := filepath.Join(dir, logName)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBounds(t, data)
	// Flip a payload byte of record 3 of 6 — interior damage.
	mid := bounds[2]
	data[mid.off+recHeaderLen+1] ^= 0xff
	if err := os.WriteFile(log, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("mid-log corruption recovered silently; want an error")
	}
	if !IsCorrupt(err) {
		t.Fatalf("mid-log corruption error = %v, want CorruptError", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != mid.off {
		t.Fatalf("corrupt offset = %+v, want offset %d", err, mid.off)
	}
}

func TestDoubleRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	m, dump := mustOpen(t, dir, Options{Sync: SyncAlways})
	m.Append(createRec())
	dump.fold(createRec())
	for i := 0; i < 7; i++ {
		m.Append(insertRec(int64(i)))
		dump.fold(insertRec(int64(i)))
	}
	m.Checkpoint(dump)
	for i := 7; i < 10; i++ {
		m.Append(insertRec(int64(i)))
	}
	// Tear the tail so recovery has real work to do.
	m.Close()
	log := filepath.Join(dir, logName)
	data, _ := os.ReadFile(log)
	data = data[:len(data)-3]
	os.WriteFile(log, data, 0o644)

	m1, d1 := mustOpen(t, dir, Options{})
	m1.Close()
	m2, d2 := mustOpen(t, dir, Options{})
	m2.Close()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("double recovery diverged:\nfirst %+v\nsecond %+v", d1, d2)
	}
	checkPrefix(t, d2, 9, 9)
	if m2.Recovery().TornTailBytes != 0 {
		t.Fatalf("second recovery still saw a torn tail: %+v", m2.Recovery())
	}
	// And byte-for-byte: the second recovery must not rewrite the log.
	after1, _ := os.ReadFile(log)
	m3, _ := mustOpen(t, dir, Options{})
	m3.Close()
	after2, _ := os.ReadFile(log)
	if !bytes.Equal(after1, after2) {
		t.Fatal("recovery of a clean log modified it")
	}
}

func TestViewAndDDLReplay(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir, Options{})
	m.Append(createRec())
	m.Append(&Record{Type: RecCreateView, Name: "v", SQL: "SELECT a FROM t"})
	m.Append(&Record{Type: RecCreateTable, Name: "u", Cols: []string{"b"}, Types: []sqltypes.Type{intT()}})
	m.Append(insertRec(1))
	m.Append(&Record{Type: RecTruncate, Name: "t"})
	m.Append(&Record{Type: RecDrop, Kind: "TABLE", Name: "u"})
	m.Append(&Record{Type: RecCreateView, Name: "v", OrReplace: true, SQL: "SELECT a+1 FROM t"})
	m.Close()

	_, dump := mustOpen(t, dir, Options{})
	if len(dump.Tables) != 1 || len(dump.Tables[0].Rows) != 0 {
		t.Fatalf("tables after replay: %+v", dump.Tables)
	}
	if len(dump.Views) != 1 || dump.Views[0].SQL != "SELECT a+1 FROM t" {
		t.Fatalf("views after replay: %+v", dump.Views)
	}
}

// TestGroupCommit: concurrent SyncAlways appends all become durable and
// share fsyncs (the whole point of group commit). Run with -race.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	m.Append(createRec())
	const workers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := m.Append(insertRec(int64(w*each + i))); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := m.StatsSnapshot()
	if st.Appends != 1+workers*each {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.DurableSeq != st.Seq {
		t.Fatalf("durable seq %d lags appended seq %d after SyncAlways appends", st.DurableSeq, st.Seq)
	}
	m.Close()

	m2, dump := mustOpen(t, dir, Options{})
	defer m2.Close()
	if got := len(dump.Tables[0].Rows); got != workers*each {
		t.Fatalf("recovered %d rows, want %d", got, workers*each)
	}
}

func TestIntervalAndOffSyncStillRecoverOnCleanClose(t *testing.T) {
	for _, p := range []SyncPolicy{SyncInterval, SyncOff} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			m, _ := mustOpen(t, dir, Options{Sync: p, SyncEvery: 5 * time.Millisecond})
			m.Append(createRec())
			for i := 0; i < 20; i++ {
				m.Append(insertRec(int64(i)))
			}
			if err := m.Sync(); err != nil { // explicit flush works under any policy
				t.Fatal(err)
			}
			m.Close()
			m2, dump := mustOpen(t, dir, Options{})
			defer m2.Close()
			checkPrefix(t, dump, 20, 20)
		})
	}
}

// recBound is one record's framed extent inside a wal.log image.
type recBound struct{ off, end int64 }

// recordBounds walks the framing of a log image (test helper).
func recordBounds(t *testing.T, data []byte) []recBound {
	t.Helper()
	var out []recBound
	off := int64(len(walMagic))
	for off < int64(len(data)) {
		if off+recHeaderLen > int64(len(data)) {
			break
		}
		length := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		end := off + recHeaderLen + length
		if end > int64(len(data)) {
			break
		}
		out = append(out, recBound{off: off, end: end})
		off = end
	}
	if len(out) == 0 {
		t.Fatal("no records found in log image")
	}
	return out
}

// overflowSnapshotBytes crafts a snapshot image with a valid CRC whose
// claimed row count (2^63) wraps uint64 when multiplied by the column
// count — a regression input for the pre-allocation size check.
func overflowSnapshotBytes() []byte {
	b := []byte(snapMagic)
	b = appendUvarint(b, 0)       // lastSeq
	b = binary.AppendVarint(b, 0) // catalog version
	b = appendUvarint(b, 1)       // one table
	b = appendString(b, "t")
	b = appendUvarint(b, 2) // two columns
	b = appendString(b, "a")
	b = append(b, byte(sqltypes.KindInt))
	b = appendString(b, "b")
	b = append(b, byte(sqltypes.KindInt))
	b = appendUvarint(b, 1<<63) // nrows: ×2 wraps to 0
	crc := crc32.Checksum(b[len(snapMagic):], castagnoli)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// TestSnapshotOverflowRowCount: a crafted snapshot whose rows×cols size
// product overflows must be rejected with a structured error before any
// allocation, never a panic or a huge make().
func TestSnapshotOverflowRowCount(t *testing.T) {
	_, _, err := DecodeSnapshot(overflowSnapshotBytes())
	if err == nil {
		t.Fatal("decode of overflowing snapshot succeeded")
	}
	if !errors.As(err, new(*CorruptError)) {
		t.Fatalf("unstructured error: %v", err)
	}
}
