package wire

// Binary payload of /apply: bulk rows travel as base64-wrapped binary
// (the sqltypes value codec) rather than JSON values, so they keep their
// kinds exactly and a decode failure is always a structured error, never
// a silent zero. /partial's frame is exec.AppendFrame's, carried the
// same way (AppendPartial).

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// maxBinaryRows bounds a decoded /apply batch, mirroring the value
// codec's discipline of validating lengths before allocating.
const maxBinaryRows = 1 << 22

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
