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
// Decoding follows one discipline, which Reader carries to every format
// built on this one: every read is bounds-checked, a length is validated
// against the remaining buffer before anything is allocated, and
// malformed input is an error, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	r := NewReader(buf)
	vals, err := r.Values(nil)
	if err != nil {
		return nil, 0, err
	}
	return vals, r.Offset(), nil
}

// Reader is a bounds-checked cursor over bytes in this codec's family of
// formats: the write-ahead log's records and snapshots, aggregate states
// and the shard endpoints' partial frames are all read through it. A
// read past the end or a malformed field is an error naming its offset,
// never a panic, and a count or length is checked against the bytes
// left before anything is allocated for it.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader at the front of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Offset is the number of bytes read so far.
func (r *Reader) Offset() int { return r.off }

// Left is the number of bytes not yet read.
func (r *Reader) Left() int { return len(r.buf) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("unexpected end of buffer at offset %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("invalid bool byte 0x%02x at offset %d", b, r.off-1)
	}
	return b == 1, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Uint64 reads a little-endian 64-bit word.
func (r *Reader) Uint64() (uint64, error) {
	if r.Left() < 8 {
		return 0, fmt.Errorf("truncated word at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// Float reads the little-endian IEEE-754 bits of a float64.
func (r *Reader) Float() (float64, error) {
	bits, err := r.Uint64()
	return math.Float64frombits(bits), err
}

// Bytes reads the next n bytes, which alias the buffer.
func (r *Reader) Bytes(n uint64) ([]byte, error) {
	if n > uint64(r.Left()) {
		return nil, fmt.Errorf("%d bytes at offset %d overrun the %d left", n, r.off, r.Left())
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// Str reads a uvarint length and that many bytes as a string.
func (r *Reader) Str() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.Bytes(n)
	return string(b), err
}

// Value reads one value (AppendValue).
func (r *Reader) Value() (Value, error) {
	v, n, err := DecodeValue(r.buf[r.off:])
	if err != nil {
		return Value{}, fmt.Errorf("value at offset %d: %w", r.off, err)
	}
	r.off += n
	return v, nil
}

// Values reads a count-prefixed tuple (AppendValues) into dst's storage,
// which it reuses when the tuple fits.
func (r *Reader) Values(dst []Value) ([]Value, error) {
	count, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each value needs at least its kind byte, so the count can never
	// exceed the bytes left; reject before allocating.
	if count > uint64(r.Left()) {
		return nil, fmt.Errorf("tuple of %d values exceeds the %d bytes left at offset %d", count, r.Left(), r.off)
	}
	if uint64(cap(dst)) < count {
		dst = make([]Value, count)
	}
	dst = dst[:count]
	for i := range dst {
		if dst[i], err = r.Value(); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
