package wire

// Hand-written encoders for the statement replies. Each appends exactly
// the bytes json.NewEncoder(w).Encode writes for the reply object it
// replaces — the same escaping, number formats, omitempty rules and
// trailing newline — straight from the engine's values, without the
// []any rows and boxed cells EncodeRows builds. EncodeRows, EncodeValue
// and encoding/json stay the oracle the codec is tested against.

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Result is one statement's outcome as the server holds it. Its fields
// are engine.Result's, so a server converts one without copying.
type Result struct {
	Columns []string
	Types   []sqltypes.Type
	Rows    [][]sqltypes.Value
	Message string
}

// messageOnly reports a DDL/DML outcome: a message, no result set.
func (r *Result) messageOnly() bool { return r.Rows == nil && len(r.Columns) == 0 }

// AppendReply appends r as the body of a /query or /execute reply: the
// QueryResponse carrying r's rows, or its message when it has none.
func (r *Result) AppendReply(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	if r.messageOnly() {
		if r.Message != "" {
			dst = appendString(append(dst, `"message":`...), r.Message)
		}
		return append(dst, "}\n"...), nil
	}
	empty := len(dst)
	if len(r.Columns) > 0 {
		dst = appendStrings(append(dst, `"columns":`...), r.Columns)
	}
	if len(r.Types) > 0 {
		dst = appendTypes(append(comma(dst, empty), `"types":`...), r.Types)
	}
	if len(r.Rows) > 0 {
		dst = append(comma(dst, empty), `"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = r.appendRow(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// AppendStream appends r as a /query.ndjson body: a Header line, one
// RowLine per row and a Trailer.
func (r *Result) AppendStream(dst []byte) ([]byte, error) {
	columns, types, rows := r.Columns, r.Types, r.Rows
	if r.messageOnly() {
		columns, types, rows = nil, nil, nil
	} else if types == nil {
		types = []sqltypes.Type{}
	}
	dst = appendStrings(append(dst, `{"columns":`...), columns)
	dst = append(appendTypes(append(dst, `,"types":`...), types), "}\n"...)
	for _, row := range rows {
		var err error
		if dst, err = r.appendRow(append(dst, `{"row":`...), row); err != nil {
			return dst, err
		}
		dst = append(dst, "}\n"...)
	}
	dst = append(dst, `{"done":true,"rows":`...)
	return append(strconv.AppendInt(dst, int64(len(rows)), 10), "}\n"...), nil
}

// appendRow appends one row as a JSON array. A non-finite DOUBLE has no
// JSON literal; it fails the reply with an error naming its column.
func (r *Result) appendRow(dst []byte, row []sqltypes.Value) ([]byte, error) {
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		if v.K == sqltypes.KindFloat && !v.Null {
			if f := v.F(); math.IsInf(f, 0) || math.IsNaN(f) {
				name := ""
				if j < len(r.Columns) {
					name = r.Columns[j]
				}
				return dst, fmt.Errorf("column %q holds %v, which JSON cannot represent", name, f)
			}
		}
		dst = appendValue(dst, v)
	}
	return append(dst, ']'), nil
}

// appendValue appends EncodeValue(v) as encoding/json writes it; the
// caller has ruled out non-finite DOUBLEs.
func appendValue(dst []byte, v sqltypes.Value) []byte {
	if v.Null {
		return append(dst, "null"...)
	}
	switch v.K {
	case sqltypes.KindBool:
		return strconv.AppendBool(dst, v.B)
	case sqltypes.KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case sqltypes.KindFloat:
		return appendFloat(dst, v.F())
	case sqltypes.KindDate:
		// Digits and '-' only: nothing to escape.
		return append(v.Time().AppendFormat(append(dst, '"'), "2006-01-02"), '"')
	default:
		return appendString(dst, v.S)
	}
}

// appendFloat is encoding/json's float64 encoding: ES6 number-to-string,
// 'e' format below 1e-6 and from 1e21, with e-07 cleaned up to e-7.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// comma separates a member from the ones before it, if any: empty is
// len(dst) right after the object's opening brace.
func comma(dst []byte, empty int) []byte {
	if len(dst) > empty {
		return append(dst, ',')
	}
	return dst
}

// appendStrings appends a []string: null when nil, as encoding/json does.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendTypes appends the type names (Type.String) as a []string.
func appendTypes(dst []byte, types []sqltypes.Type) []byte {
	if types == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, t := range types {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, '"'), t.Kind.String()...)
		if t.Measure {
			dst = append(dst, " MEASURE"...)
		}
		dst = append(dst, '"')
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string encoding with HTML escaping on:
// '"' and '\\' escaped, control characters as \b \f \n \r \t or \u00XX,
// '<' '>' '&' as \u003c \u003e \u0026, U+2028 and U+2029 escaped, and
// every byte of invalid UTF-8 replaced by the six bytes \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendPartial appends the body of a /partial reply: the catalog
// version and the frame of groups (exec.AppendFrame).
func AppendPartial(dst []byte, version int64, groups []exec.PartialGroup) ([]byte, error) {
	return appendRead(dst, version, func(dst []byte) ([]byte, error) { return exec.AppendFrame(dst, groups) })
}

// AppendRows appends the body of a /rows reply: the catalog version and
// the frame of rows (AppendRowsFrame).
func AppendRows(dst []byte, version int64, rows [][]sqltypes.Value) ([]byte, error) {
	return appendRead(dst, version, func(dst []byte) ([]byte, error) { return AppendRowsFrame(dst, rows), nil })
}

// appendRead appends the body of a shard read's reply (ReadResponse):
// the catalog version and the frame appendFrame appends,
// base64-encoded once. The frame is built in dst's spare room past the
// reply and encoded back over itself, so a buffer with room allocates
// nothing.
func appendRead(dst []byte, version int64, appendFrame func([]byte) ([]byte, error)) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"version":`...), version, 10)
	dst = append(dst, `,"frame":"`...)
	mark := len(dst)
	dst, err := appendFrame(dst)
	if err != nil {
		return dst[:mark], err
	}
	frame := dst[mark:]
	dst = base64.StdEncoding.AppendEncode(dst, frame)
	dst = dst[:mark+copy(dst[mark:], dst[mark+len(frame):])]
	return append(dst, "\"}\n"...), nil
}
