// Package wal provides the durability layer of the engine: an
// append-only, checksummed write-ahead log of catalog and data
// mutations, periodic checkpoint snapshots of the full store, and a
// recovery path that replays snapshot + log tail to the last intact
// record.
//
// The package is deliberately below the catalog: it speaks a small
// logical record vocabulary (CREATE TABLE / CREATE VIEW / DROP /
// INSERT / TRUNCATE) over sqltypes values and rebuilds a StoreDump the
// engine can load, so it never needs to parse SQL or know about plans.
// View definitions travel as rendered SQL text; the engine re-parses
// them at restore time.
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

// byteReader walks a payload buffer with bounds checks; every decode
// error is a structured corruption error, never a panic.
type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) err(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, r.err("unexpected end of record at offset %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.err("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.err("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.off) {
		return nil, r.err("string of %d bytes overruns record (%d left)", n, len(r.buf)-r.off)
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *byteReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	return string(b), err
}

// value decodes one value with the sqltypes codec; a NULL of any kind
// (bare NULL vs typed NULL included) round-trips exactly.
func (r *byteReader) value() (sqltypes.Value, error) {
	v, n, err := sqltypes.DecodeValue(r.buf[r.off:])
	if err != nil {
		return sqltypes.Value{}, r.err("value at offset %d: %v", r.off, err)
	}
	r.off += n
	return v, nil
}

// encodePayload renders a record's payload (seq + type + body).
func encodePayload(rec *Record) []byte {
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
	r := &byteReader{buf: buf}
	seq, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	tb, err := r.byte()
	if err != nil {
		return nil, err
	}
	rec := &Record{Seq: seq, Type: RecordType(tb)}
	switch rec.Type {
	case RecCreateTable:
		if rec.Name, err = r.string(); err != nil {
			return nil, err
		}
		orb, err := r.byte()
		if err != nil {
			return nil, err
		}
		rec.OrReplace = orb != 0
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(buf)) { // each column costs ≥2 bytes
			return nil, r.err("column count %d exceeds payload", n)
		}
		rec.Cols = make([]string, n)
		rec.Types = make([]sqltypes.Type, n)
		for i := range rec.Cols {
			if rec.Cols[i], err = r.string(); err != nil {
				return nil, err
			}
			kb, err := r.byte()
			if err != nil {
				return nil, err
			}
			if sqltypes.Kind(kb) > sqltypes.KindDate {
				return nil, r.err("unknown column kind %d", kb)
			}
			rec.Types[i] = sqltypes.Type{Kind: sqltypes.Kind(kb)}
		}
	case RecCreateView:
		if rec.Name, err = r.string(); err != nil {
			return nil, err
		}
		orb, err := r.byte()
		if err != nil {
			return nil, err
		}
		rec.OrReplace = orb != 0
		if rec.SQL, err = r.string(); err != nil {
			return nil, err
		}
	case RecDrop:
		if rec.Kind, err = r.string(); err != nil {
			return nil, err
		}
		if rec.Name, err = r.string(); err != nil {
			return nil, err
		}
	case RecInsert:
		if rec.Name, err = r.string(); err != nil {
			return nil, err
		}
		nrows, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ncols, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nrows > maxDecodeRows || ncols > maxDecodeRows {
			return nil, r.err("row/column count %d×%d exceeds cap", nrows, ncols)
		}
		// Every value costs at least one byte; reject impossible claims
		// before allocating row storage.
		if nrows*max(ncols, 1) > uint64(len(buf)-r.off) {
			return nil, r.err("%d×%d values overrun %d remaining bytes", nrows, ncols, len(buf)-r.off)
		}
		rec.Rows = make([][]sqltypes.Value, nrows)
		for i := range rec.Rows {
			row := make([]sqltypes.Value, ncols)
			for j := range row {
				if row[j], err = r.value(); err != nil {
					return nil, err
				}
			}
			rec.Rows[i] = row
		}
	case RecTruncate:
		if rec.Name, err = r.string(); err != nil {
			return nil, err
		}
	default:
		return nil, r.err("unknown record type %d", tb)
	}
	if r.off != len(buf) {
		return nil, r.err("%d trailing bytes after record body", len(buf)-r.off)
	}
	return rec, nil
}

// EncodeRecord renders a record with framing (length + CRC + payload),
// ready to append to the log.
func EncodeRecord(rec *Record) []byte {
	payload := encodePayload(rec)
	out := make([]byte, recHeaderLen, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}
