package wire

// Binary payload helpers for the shard endpoints (/partial, /apply).
// Group keys, aggregate states, and bulk rows travel as base64-wrapped
// binary (the sqltypes value codec, fn's state codec) rather than JSON
// values: the encoding is canonical — byte equality is value equality —
// so a coordinator can merge groups from different shards by comparing
// key strings, and a decode failure is always a structured error, never
// a silent zero.

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// maxBinaryRows bounds a decoded /apply batch, mirroring the value
// codec's discipline of validating lengths before allocating.
const maxBinaryRows = 1 << 22

// EncodeKey encodes a group key (or any value tuple) canonically.
// AppendPartial writes the same bytes in place; EncodeKey and
// EncodeStates remain its test oracle.
func EncodeKey(vals []sqltypes.Value) string {
	return base64.StdEncoding.EncodeToString(sqltypes.AppendValues(nil, vals))
}

// DecodeKey reverses EncodeKey.
func DecodeKey(s string) ([]sqltypes.Value, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("group key: %w", err)
	}
	vals, n, err := sqltypes.DecodeValues(buf)
	if err != nil {
		return nil, fmt.Errorf("group key: %w", err)
	}
	if n != len(buf) {
		return nil, fmt.Errorf("group key: %d trailing bytes", len(buf)-n)
	}
	return vals, nil
}

// EncodeStates serializes one partial state per aggregate.
func EncodeStates(states []fn.AggState) ([]string, error) {
	out := make([]string, len(states))
	for i, st := range states {
		buf, err := fn.EncodeState(st)
		if err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		out[i] = base64.StdEncoding.EncodeToString(buf)
	}
	return out, nil
}

// DecodeStates reverses EncodeStates.
func DecodeStates(ss []string) ([]fn.AggState, error) {
	out := make([]fn.AggState, len(ss))
	for i, s := range ss {
		buf, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		st, n, err := fn.DecodeState(buf)
		if err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		if n != len(buf) {
			return nil, fmt.Errorf("aggregate %d: %d trailing bytes", i, len(buf)-n)
		}
		out[i] = st
	}
	return out, nil
}

// EncodeRowsBinary packs rows for ApplyRequest.Rows: a uvarint row
// count, then one sqltypes.AppendValues tuple per row.
func EncodeRowsBinary(rows [][]sqltypes.Value) string {
	buf := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, row := range rows {
		buf = sqltypes.AppendValues(buf, row)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeRowsBinary reverses EncodeRowsBinary, validating the declared
// count against the remaining bytes before allocating.
func DecodeRowsBinary(s string) ([][]sqltypes.Value, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("rows: %w", err)
	}
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("rows: bad count prefix")
	}
	if count > maxBinaryRows || count > uint64(len(buf)-n) {
		return nil, fmt.Errorf("rows: count %d exceeds payload", count)
	}
	rest := buf[n:]
	rows := make([][]sqltypes.Value, 0, count)
	for i := uint64(0); i < count; i++ {
		vals, used, err := sqltypes.DecodeValues(rest)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		rest = rest[used:]
		rows = append(rows, vals)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("rows: %d trailing bytes", len(rest))
	}
	return rows, nil
}
