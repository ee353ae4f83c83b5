// Binary serialization of aggregate partial states, used by the
// scatter-gather /partial endpoint to ship per-group AggStates from
// shard nodes to a coordinator that finishes the aggregation with
// Merge. The format is self-framing and versionless-by-tag: one tag
// byte names the concrete state type, followed by that type's fields.
//
// Values inside a state use the sqltypes value codec. The decoder
// follows its discipline: every read is bounds-checked through
// byteReader, and a malformed buffer produces a structured error —
// never a panic or an over-allocation.
package fn

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// State type tags. Stable wire values: append only.
const (
	tagCount      = 1
	tagSum        = 2
	tagAvg        = 3
	tagMinMax     = 4
	tagVar        = 5
	tagAnyValue   = 6
	tagArgExtreme = 7
	tagAvgExact   = 8
)

// byteReader is a bounds-checked cursor over an untrusted buffer.
type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("state codec: truncated buffer at offset %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *byteReader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("state codec: invalid bool byte 0x%02x at offset %d", b, r.off-1)
	}
	return b == 1, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("state codec: bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) uint64() (uint64, error) {
	if len(r.buf)-r.off < 8 {
		return 0, fmt.Errorf("state codec: truncated word at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) float() (float64, error) {
	if len(r.buf)-r.off < 8 {
		return 0, fmt.Errorf("state codec: truncated float at offset %d", r.off)
	}
	bits := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(bits), nil
}

func (r *byteReader) value() (sqltypes.Value, error) {
	v, n, err := sqltypes.DecodeValue(r.buf[r.off:])
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("state codec: offset %d: %w", r.off, err)
	}
	r.off += n
	return v, nil
}

// AppendState serializes one aggregate partial state.
func AppendState(dst []byte, s AggState) ([]byte, error) {
	switch s := s.(type) {
	case *countState:
		dst = append(dst, tagCount)
		dst = binary.AppendVarint(dst, s.n)
	case *sumState:
		dst = append(dst, tagSum, byte(s.kind), boolByte(s.any))
		dst = binary.AppendVarint(dst, s.intSum)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.fltSum))
	case *avgState:
		if s.exact {
			dst = append(dst, tagAvgExact)
			dst = binary.AppendVarint(dst, s.n)
			dst = binary.AppendVarint(dst, s.hi)
			dst = binary.LittleEndian.AppendUint64(dst, s.lo)
			break
		}
		dst = append(dst, tagAvg)
		dst = binary.AppendVarint(dst, s.n)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.sum))
	case *minMaxState:
		dst = append(dst, tagMinMax, boolByte(s.wantLess), boolByte(s.any))
		dst = sqltypes.AppendValue(dst, s.best)
	case *varState:
		dst = append(dst, tagVar, boolByte(s.sample), boolByte(s.stddev))
		dst = binary.AppendVarint(dst, s.n)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.mean))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.m2))
	case *anyValueState:
		dst = append(dst, tagAnyValue, boolByte(s.any))
		dst = sqltypes.AppendValue(dst, s.val)
	case *argExtremeState:
		dst = append(dst, tagArgExtreme, boolByte(s.wantLess), boolByte(s.any))
		dst = sqltypes.AppendValue(dst, s.bestKey)
		dst = sqltypes.AppendValue(dst, s.val)
	default:
		return nil, fmt.Errorf("state codec: unencodable aggregate state %T", s)
	}
	return dst, nil
}

// EncodeState serializes one aggregate partial state into a fresh
// buffer.
func EncodeState(s AggState) ([]byte, error) { return AppendState(nil, s) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeState reconstructs a partial state from its binary form,
// returning the bytes consumed. The result is ready for Merge with
// other states of the same tag, and for Result.
func DecodeState(buf []byte) (AggState, int, error) {
	r := &byteReader{buf: buf}
	s, err := r.state()
	if err != nil {
		return nil, 0, err
	}
	return s, r.off, nil
}

func (r *byteReader) state() (AggState, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagCount:
		n, err := r.varint()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("state codec: negative COUNT %d", n)
		}
		return &countState{n: n}, nil
	case tagSum:
		kb, err := r.byte()
		if err != nil {
			return nil, err
		}
		kind := sqltypes.Kind(kb)
		if kind > sqltypes.KindDate {
			return nil, fmt.Errorf("state codec: unknown SUM kind %d", kb)
		}
		any, err := r.bool()
		if err != nil {
			return nil, err
		}
		intSum, err := r.varint()
		if err != nil {
			return nil, err
		}
		fltSum, err := r.float()
		if err != nil {
			return nil, err
		}
		return &sumState{kind: kind, any: any, intSum: intSum, fltSum: fltSum}, nil
	case tagAvg:
		n, err := r.varint()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("state codec: negative AVG count %d", n)
		}
		sum, err := r.float()
		if err != nil {
			return nil, err
		}
		return &avgState{n: n, sum: sum}, nil
	case tagAvgExact:
		n, err := r.varint()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("state codec: negative AVG count %d", n)
		}
		hi, err := r.varint()
		if err != nil {
			return nil, err
		}
		lo, err := r.uint64()
		if err != nil {
			return nil, err
		}
		if n == 0 && (hi != 0 || lo != 0) {
			return nil, fmt.Errorf("state codec: AVG of no rows with a non-zero sum")
		}
		return &avgState{n: n, exact: true, hi: hi, lo: lo}, nil
	case tagMinMax:
		wantLess, err := r.bool()
		if err != nil {
			return nil, err
		}
		any, err := r.bool()
		if err != nil {
			return nil, err
		}
		best, err := r.value()
		if err != nil {
			return nil, err
		}
		return &minMaxState{wantLess: wantLess, any: any, best: best}, nil
	case tagVar:
		sample, err := r.bool()
		if err != nil {
			return nil, err
		}
		stddev, err := r.bool()
		if err != nil {
			return nil, err
		}
		n, err := r.varint()
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("state codec: negative VAR count %d", n)
		}
		mean, err := r.float()
		if err != nil {
			return nil, err
		}
		m2, err := r.float()
		if err != nil {
			return nil, err
		}
		return &varState{n: n, mean: mean, m2: m2, sample: sample, stddev: stddev}, nil
	case tagAnyValue:
		any, err := r.bool()
		if err != nil {
			return nil, err
		}
		val, err := r.value()
		if err != nil {
			return nil, err
		}
		return &anyValueState{any: any, val: val}, nil
	case tagArgExtreme:
		wantLess, err := r.bool()
		if err != nil {
			return nil, err
		}
		any, err := r.bool()
		if err != nil {
			return nil, err
		}
		bestKey, err := r.value()
		if err != nil {
			return nil, err
		}
		val, err := r.value()
		if err != nil {
			return nil, err
		}
		return &argExtremeState{wantLess: wantLess, any: any, bestKey: bestKey, val: val}, nil
	default:
		return nil, fmt.Errorf("state codec: unknown state tag %d", tag)
	}
}
