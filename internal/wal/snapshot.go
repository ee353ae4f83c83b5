package wal

// Checkpoint snapshots: a single file holding the full store (tables
// with rows, views as SQL text, catalog version) plus the sequence
// number of the last WAL record it includes. Snapshots are written to a
// temp file, fsynced, and atomically renamed into place; a crash at any
// point leaves either the old snapshot or the new one, never a partial
// file (a leftover temp file is deleted on recovery).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// TableDump is one base table's full state.
type TableDump struct {
	Name  string
	Cols  []string
	Types []sqltypes.Type
	Rows  [][]sqltypes.Value
}

// ViewDump is one view, carried as parseable SQL.
type ViewDump struct {
	Name string
	SQL  string
}

// StoreDump is the full logical store: what a checkpoint persists and
// what recovery hands back to the engine.
type StoreDump struct {
	// Version is the catalog's mutation count at dump time; restored so
	// a coordinator's apply cursor still lines up after a crash.
	Version int64
	Tables  []TableDump
	Views   []ViewDump
	// Log holds the records Open found after the snapshot, in log
	// order, for the engine to apply on top of it. A checkpoint does not
	// persist it: the dump it writes already reflects every record.
	Log []*Record
}

const (
	snapMagic   = "MSQLSNP1"
	walMagic    = "MSQLWAL1"
	snapName    = "snapshot.msnap"
	snapTmpName = "snapshot.tmp"
	logName     = "wal.log"
)

// encodeSnapshot renders magic + payload + CRC.
func encodeSnapshot(dump *StoreDump, lastSeq uint64) []byte {
	b := make([]byte, 0, 4096)
	b = append(b, snapMagic...)
	b = appendUvarint(b, lastSeq)
	b = binary.AppendVarint(b, dump.Version)
	b = appendUvarint(b, uint64(len(dump.Tables)))
	for i := range dump.Tables {
		t := &dump.Tables[i]
		b = appendString(b, t.Name)
		b = appendUvarint(b, uint64(len(t.Cols)))
		for j, c := range t.Cols {
			b = appendString(b, c)
			b = append(b, byte(t.Types[j].Kind))
		}
		b = appendUvarint(b, uint64(len(t.Rows)))
		for _, row := range t.Rows {
			for _, v := range row {
				b = sqltypes.AppendValue(b, v)
			}
		}
	}
	b = appendUvarint(b, uint64(len(dump.Views)))
	for _, v := range dump.Views {
		b = appendString(b, v.Name)
		b = appendString(b, v.SQL)
	}
	crc := crc32.Checksum(b[len(snapMagic):], castagnoli)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// DecodeSnapshot parses a snapshot file image. Arbitrary bytes yield a
// *CorruptError, never a panic; allocation is bounded by the input
// length.
func DecodeSnapshot(data []byte) (*StoreDump, uint64, error) {
	dump, lastSeq, err := decodeSnapshot(data)
	if err != nil {
		return nil, 0, &CorruptError{File: snapName, Offset: -1, Detail: err.Error()}
	}
	return dump, lastSeq, nil
}

func decodeSnapshot(data []byte) (*StoreDump, uint64, error) {
	fail := func(format string, args ...any) (*StoreDump, uint64, error) {
		return nil, 0, fmt.Errorf(format, args...)
	}
	if len(data) < len(snapMagic)+4 {
		return fail("file of %d bytes is too short", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return fail("bad magic %q", data[:len(snapMagic)])
	}
	payload := data[len(snapMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return fail("checksum mismatch (got %08x, want %08x)", got, want)
	}
	r := sqltypes.NewReader(payload)
	lastSeq, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	version, err := r.Varint()
	if err != nil {
		return nil, 0, err
	}
	dump := &StoreDump{Version: version}
	ntables, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if ntables > uint64(len(payload)) {
		return fail("table count %d exceeds payload", ntables)
	}
	dump.Tables = make([]TableDump, 0, ntables)
	for ti := uint64(0); ti < ntables; ti++ {
		var t TableDump
		if t.Name, err = r.Str(); err != nil {
			return nil, 0, err
		}
		ncols, err := r.Uvarint()
		if err != nil {
			return nil, 0, err
		}
		if ncols > uint64(len(payload)) {
			return fail("column count %d exceeds payload", ncols)
		}
		t.Cols = make([]string, ncols)
		t.Types = make([]sqltypes.Type, ncols)
		for j := range t.Cols {
			if t.Cols[j], err = r.Str(); err != nil {
				return nil, 0, err
			}
			kb, err := r.Byte()
			if err != nil {
				return nil, 0, err
			}
			if sqltypes.Kind(kb) > sqltypes.KindDate {
				return fail("unknown column kind %d", kb)
			}
			t.Types[j] = sqltypes.Type{Kind: sqltypes.Kind(kb)}
		}
		nrows, err := r.Uvarint()
		if err != nil {
			return nil, 0, err
		}
		// Divide rather than multiply: nrows is attacker-controlled and
		// nrows*ncols can wrap uint64, slipping a huge allocation past the
		// bound. Every value costs at least one encoded byte, so nrows must
		// fit in remaining/ncols.
		if nrows > uint64(r.Left())/max(ncols, 1) {
			return fail("%d×%d values overrun %d remaining bytes", nrows, ncols, r.Left())
		}
		t.Rows = make([][]sqltypes.Value, nrows)
		for i := range t.Rows {
			row := make([]sqltypes.Value, ncols)
			for j := range row {
				if row[j], err = r.Value(); err != nil {
					return nil, 0, err
				}
			}
			t.Rows[i] = row
		}
		dump.Tables = append(dump.Tables, t)
	}
	nviews, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if nviews > uint64(len(payload)) {
		return fail("view count %d exceeds payload", nviews)
	}
	dump.Views = make([]ViewDump, 0, nviews)
	for i := uint64(0); i < nviews; i++ {
		var v ViewDump
		if v.Name, err = r.Str(); err != nil {
			return nil, 0, err
		}
		if v.SQL, err = r.Str(); err != nil {
			return nil, 0, err
		}
		dump.Views = append(dump.Views, v)
	}
	if r.Left() != 0 {
		return fail("%d trailing bytes after snapshot body", r.Left())
	}
	return dump, lastSeq, nil
}

// readSnapshotFile loads and verifies dir's snapshot, if present.
// Returns (nil, 0, nil) when no snapshot exists.
func readSnapshotFile(dir string) (*StoreDump, uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return DecodeSnapshot(data)
}

// writeSnapshotFile writes dump to the temp file, fsyncs it, and
// atomically renames it into place, firing crash points at each
// boundary. The directory is fsynced after the rename so the new name
// itself is durable.
func writeSnapshotFile(dir string, dump *StoreDump, lastSeq uint64) error {
	if err := crash(CrashBeforeSnapshot); err != nil {
		return err
	}
	tmp := filepath.Join(dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data := encodeSnapshot(dump, lastSeq)
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := crash(CrashAfterSnapshot); err != nil {
		return err
	}
	if err := crash(CrashBeforeRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return crash(CrashAfterRename)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
