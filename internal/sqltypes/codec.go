package sqltypes

// The binary value codec, the one byte form of a Value: a kind byte
// whose high bit is the NULL flag, then — for a non-NULL value only — a
// 0/1 byte (BOOLEAN), a zigzag varint (INTEGER, and DATE as days), the
// little-endian IEEE-754 bits (DOUBLE) or a uvarint length and the bytes
// (VARCHAR). The zero Value (non-NULL KindUnknown) is its kind byte
// alone. The encoding is canonical: byte equality is value equality, so
// encoded group keys compare directly. The write-ahead log and its
// snapshots, the shard endpoints' keys, rows and aggregate states, and
// the coordinator's partition hash all use it.
//
// Decoding follows one discipline: every read is bounds-checked, a
// length is validated against the remaining buffer before anything is
// allocated, and malformed input is an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// nullFlag marks a NULL in the kind byte.
const nullFlag = 0x80

// AppendValue appends the binary form of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	k := byte(v.K)
	if v.Null {
		return append(dst, k|nullFlag)
	}
	dst = append(dst, k)
	switch v.K {
	case KindBool:
		if v.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindInt, KindDate:
		return binary.AppendVarint(dst, v.I)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	default: // the zero Value: no body
		return dst
	}
}

// AppendValues appends a count-prefixed tuple of values.
func AppendValues(dst []byte, vals []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeValue decodes one value from the front of buf, returning the
// bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, errors.New("value codec: missing kind byte")
	}
	kind := Kind(buf[0] &^ nullFlag)
	if kind > KindDate {
		return Value{}, 0, fmt.Errorf("value codec: unknown kind %d", kind)
	}
	if buf[0]&nullFlag != 0 {
		return Null(kind), 1, nil
	}
	body := buf[1:]
	switch kind {
	case KindBool:
		if len(body) == 0 || body[0] > 1 {
			return Value{}, 0, errors.New("value codec: missing or invalid BOOLEAN byte")
		}
		return NewBool(body[0] == 1), 2, nil
	case KindInt, KindDate:
		i, n := binary.Varint(body)
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value codec: bad %s varint", kind)
		}
		return Value{K: kind, I: i}, 1 + n, nil
	case KindFloat:
		if len(body) < 8 {
			return Value{}, 0, errors.New("value codec: truncated DOUBLE")
		}
		return Value{K: KindFloat, I: int64(binary.LittleEndian.Uint64(body))}, 9, nil
	case KindString:
		l, n := binary.Uvarint(body)
		if n <= 0 {
			return Value{}, 0, errors.New("value codec: bad VARCHAR length")
		}
		if l > uint64(len(body)-n) {
			return Value{}, 0, fmt.Errorf("value codec: VARCHAR of %d bytes overruns %d remaining", l, len(body)-n)
		}
		return NewString(string(body[n : n+int(l)])), 1 + n + int(l), nil
	default: // the zero Value
		return Value{}, 1, nil
	}
}

// DecodeValues decodes a count-prefixed tuple from the front of buf,
// returning the bytes consumed.
func DecodeValues(buf []byte) ([]Value, int, error) {
	count, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, 0, errors.New("value codec: bad tuple count")
	}
	// Each value needs at least its kind byte, so the count can never
	// exceed the remaining buffer; reject before allocating.
	if count > uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("value codec: tuple of %d values exceeds %d remaining bytes", count, len(buf)-off)
	}
	vals := make([]Value, count)
	for i := range vals {
		v, n, err := DecodeValue(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("value %d at offset %d: %w", i, off, err)
		}
		vals[i] = v
		off += n
	}
	return vals, off, nil
}
