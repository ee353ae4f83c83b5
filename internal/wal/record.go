// Package wal provides the durability layer of the engine: an
// append-only, checksummed write-ahead log of catalog and data
// mutations, periodic checkpoint snapshots of the full store, and a
// recovery path that replays snapshot + log tail to the last intact
// record.
//
// The package is deliberately below the catalog: it speaks a small
// logical record vocabulary (CREATE TABLE / CREATE VIEW / DROP /
// INSERT / TRUNCATE) over sqltypes values, so it never needs to parse
// SQL or know about plans. A Record is the one description of a
// mutation: the engine makes one for every mutating statement and
// applies it with one function, which is also what applies the records
// recovery hands back after the snapshot (StoreDump.Log) and the records
// a coordinator ships to a shard (EncodePayload / DecodePayload). View
// definitions travel as rendered SQL text; the engine re-parses them
// when it applies a record or restores a snapshot.
//
// On-disk layout inside the data directory:
//
//	wal.log        append-only record log (header + records)
//	snapshot.msnap latest checkpoint (atomic-renamed into place)
//	snapshot.tmp   in-flight checkpoint (deleted on recovery)
//
// Record framing:
//
//	[uint32 length][uint32 crc32c(payload)][payload]
//	payload = [uvarint seq][1 byte type][type-specific body]
//
// The CRC covers the whole payload, so a torn or bit-flipped tail is
// detected and cleanly truncated during recovery — never replayed,
// never a panic.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// RecordType discriminates the logical mutation a record carries.
type RecordType byte

const (
	// RecCreateTable registers a base table (name, columns, types).
	RecCreateTable RecordType = 1
	// RecCreateView registers a view as rendered SQL text.
	RecCreateView RecordType = 2
	// RecDrop removes a table or view.
	RecDrop RecordType = 3
	// RecInsert appends coerced rows to a base table.
	RecInsert RecordType = 4
	// RecTruncate removes all rows of a base table.
	RecTruncate RecordType = 5
)

func (t RecordType) String() string {
	switch t {
	case RecCreateTable:
		return "CREATE TABLE"
	case RecCreateView:
		return "CREATE VIEW"
	case RecDrop:
		return "DROP"
	case RecInsert:
		return "INSERT"
	case RecTruncate:
		return "TRUNCATE"
	default:
		return fmt.Sprintf("RecordType(%d)", byte(t))
	}
}

// Record is one logical mutation. Only the fields relevant to Type are
// set; Seq is assigned by the Manager at append time.
type Record struct {
	Seq  uint64
	Type RecordType

	// Name is the object name (table or view).
	Name string
	// OrReplace carries CREATE ... OR REPLACE.
	OrReplace bool
	// Cols / Types describe a created table's schema.
	Cols  []string
	Types []sqltypes.Type
	// SQL is a view definition, rendered as parseable SQL.
	SQL string
	// Kind is "TABLE" or "VIEW" for RecDrop.
	Kind string
	// Rows are the inserted rows (already coerced to the table schema).
	Rows [][]sqltypes.Value
}

const (
	// recHeaderLen is the per-record framing overhead: length + CRC.
	recHeaderLen = 8
	// MaxRecordBytes caps one record's payload. Decoding rejects larger
	// claims before allocating, so a corrupt length prefix (or hostile
	// input) cannot OOM recovery.
	MaxRecordBytes = 64 << 20
)

// castagnoli is the CRC32-C table (the polynomial used by iSCSI and
// most storage systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendUvarint / appendString build the payload; values are encoded
// by the sqltypes value codec.

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// EncodePayload renders a record's payload (seq + type + body): the
// bytes the log frames and checksums, and the form in which a
// coordinator logs and ships a mutation. DecodePayload reverses it.
func EncodePayload(rec *Record) []byte {
	b := make([]byte, 0, 64)
	b = appendUvarint(b, rec.Seq)
	b = append(b, byte(rec.Type))
	switch rec.Type {
	case RecCreateTable:
		b = appendString(b, rec.Name)
		b = appendBool(b, rec.OrReplace)
		b = appendUvarint(b, uint64(len(rec.Cols)))
		for i, c := range rec.Cols {
			b = appendString(b, c)
			b = append(b, byte(rec.Types[i].Kind))
		}
	case RecCreateView:
		b = appendString(b, rec.Name)
		b = appendBool(b, rec.OrReplace)
		b = appendString(b, rec.SQL)
	case RecDrop:
		b = appendString(b, rec.Kind)
		b = appendString(b, rec.Name)
	case RecInsert:
		b = appendString(b, rec.Name)
		b = appendUvarint(b, uint64(len(rec.Rows)))
		if len(rec.Rows) > 0 {
			b = appendUvarint(b, uint64(len(rec.Rows[0])))
			for _, row := range rec.Rows {
				for _, v := range row {
					b = sqltypes.AppendValue(b, v)
				}
			}
		} else {
			b = appendUvarint(b, 0)
		}
	case RecTruncate:
		b = appendString(b, rec.Name)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// maxDecodeRows caps the row/column counts a decoder will allocate for
// up front; the payload length bounds the real count anyway (every row
// costs at least one byte), so this only limits pathological claims.
const maxDecodeRows = 1 << 24

// DecodePayload decodes one record payload (the bytes covered by the
// CRC). Arbitrary input yields a *CorruptError, never a panic: lengths
// are validated against the remaining buffer before any allocation.
func DecodePayload(buf []byte) (*Record, error) {
	if uint64(len(buf)) > MaxRecordBytes {
		return nil, &CorruptError{Detail: fmt.Sprintf("payload of %d bytes exceeds cap", len(buf))}
	}
	rec, err := decodePayload(buf)
	if err != nil {
		return nil, &CorruptError{Detail: err.Error()}
	}
	return rec, nil
}

func decodePayload(buf []byte) (*Record, error) {
	r := sqltypes.NewReader(buf)
	seq, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	tb, err := r.Byte()
	if err != nil {
		return nil, err
	}
	rec := &Record{Seq: seq, Type: RecordType(tb)}
	switch rec.Type {
	case RecCreateTable:
		if rec.Name, err = r.Str(); err != nil {
			return nil, err
		}
		orb, err := r.Byte()
		if err != nil {
			return nil, err
		}
		rec.OrReplace = orb != 0
		n, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(buf)) { // each column costs ≥2 bytes
			return nil, fmt.Errorf("column count %d exceeds payload", n)
		}
		rec.Cols = make([]string, n)
		rec.Types = make([]sqltypes.Type, n)
		for i := range rec.Cols {
			if rec.Cols[i], err = r.Str(); err != nil {
				return nil, err
			}
			kb, err := r.Byte()
			if err != nil {
				return nil, err
			}
			if sqltypes.Kind(kb) > sqltypes.KindDate {
				return nil, fmt.Errorf("unknown column kind %d", kb)
			}
			rec.Types[i] = sqltypes.Type{Kind: sqltypes.Kind(kb)}
		}
	case RecCreateView:
		if rec.Name, err = r.Str(); err != nil {
			return nil, err
		}
		orb, err := r.Byte()
		if err != nil {
			return nil, err
		}
		rec.OrReplace = orb != 0
		if rec.SQL, err = r.Str(); err != nil {
			return nil, err
		}
	case RecDrop:
		if rec.Kind, err = r.Str(); err != nil {
			return nil, err
		}
		if rec.Name, err = r.Str(); err != nil {
			return nil, err
		}
	case RecInsert:
		if rec.Name, err = r.Str(); err != nil {
			return nil, err
		}
		nrows, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		ncols, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if nrows > maxDecodeRows || ncols > maxDecodeRows {
			return nil, fmt.Errorf("row/column count %d×%d exceeds cap", nrows, ncols)
		}
		// Every value costs at least one byte; reject impossible claims
		// before allocating row storage.
		if nrows*max(ncols, 1) > uint64(r.Left()) {
			return nil, fmt.Errorf("%d×%d values overrun %d remaining bytes", nrows, ncols, r.Left())
		}
		rec.Rows = make([][]sqltypes.Value, nrows)
		for i := range rec.Rows {
			row := make([]sqltypes.Value, ncols)
			for j := range row {
				if row[j], err = r.Value(); err != nil {
					return nil, err
				}
			}
			rec.Rows[i] = row
		}
	case RecTruncate:
		if rec.Name, err = r.Str(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown record type %d", tb)
	}
	if r.Left() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after record body", r.Left())
	}
	return rec, nil
}

// EncodeRecord renders a record with framing (length + CRC + payload),
// ready to append to the log.
func EncodeRecord(rec *Record) []byte {
	payload := EncodePayload(rec)
	out := make([]byte, recHeaderLen, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}
