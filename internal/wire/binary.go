package wire

// Binary rows: a /rows reply travels as one frame of rows (the sqltypes
// value codec) rather than as JSON values, so they keep their kinds
// exactly — an INTEGER beyond 2^53, a non-finite DOUBLE — and a decode
// failure is always a structured error, never a silent zero. A /rows
// reply carries it as its frame (AppendRows), as a /partial reply
// carries exec.AppendFrame's (AppendPartial).

import (
	"encoding/binary"
	"fmt"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// maxBinaryRows bounds a decoded frame of rows, mirroring the value
// codec's discipline of validating lengths before allocating.
const maxBinaryRows = 1 << 22

// AppendRowsFrame appends the frame of rows: a uvarint row count, then
// one sqltypes.AppendValues tuple per row.
func AppendRowsFrame(dst []byte, rows [][]sqltypes.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = sqltypes.AppendValues(dst, row)
	}
	return dst
}

// DecodeRowsFrame reads a frame of rows (AppendRowsFrame), validating
// the declared count against the remaining bytes before allocating.
func DecodeRowsFrame(buf []byte) ([][]sqltypes.Value, error) {
	r := sqltypes.NewReader(buf)
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("rows: bad count prefix")
	}
	if count > maxBinaryRows || count > uint64(r.Left()) {
		return nil, fmt.Errorf("rows: count %d exceeds payload", count)
	}
	rows := make([][]sqltypes.Value, count)
	for i := range rows {
		if rows[i], err = r.Values(nil); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	if r.Left() != 0 {
		return nil, fmt.Errorf("rows: %d trailing bytes", r.Left())
	}
	return rows, nil
}
