// Binary serialization of aggregate partial states, used by the
// scatter-gather /partial endpoint to ship per-group AggStates from
// shard nodes to a coordinator that finishes the aggregation with
// Merge. The format is self-framing and versionless-by-tag: one tag
// byte names the concrete state type, followed by that type's fields.
//
// Values inside a state use the sqltypes value codec. The decoder
// follows its discipline: every read is bounds-checked through
// sqltypes.Reader, and a malformed buffer produces a structured error —
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
	r := sqltypes.NewReader(buf)
	s, err := ReadState(&r, nil)
	if err != nil {
		return nil, 0, err
	}
	return s, r.Offset(), nil
}

// ReadState decodes the next state of r. With into nil it makes a state
// of the tag's type; otherwise it overwrites into, which must be a state
// of that type, and returns it, so a decode allocates nothing beyond a
// VARCHAR value's bytes.
func ReadState(r *sqltypes.Reader, into AggState) (AggState, error) {
	s, err := readState(r, into)
	if err != nil {
		return nil, fmt.Errorf("state codec: %w", err)
	}
	return s, nil
}

// stateFor returns into as a *T, or a new T when into is nil.
func stateFor[T any, P interface {
	*T
	AggState
}](into AggState) (P, error) {
	if into == nil {
		return new(T), nil
	}
	s, ok := into.(P)
	if !ok {
		return nil, fmt.Errorf("a %T cannot be decoded into a %T", P(nil), into)
	}
	return s, nil
}

// readNonNeg reads a varint count that must not be negative.
func readNonNeg(r *sqltypes.Reader, what string) (int64, error) {
	n, err := r.Varint()
	if err == nil && n < 0 {
		err = fmt.Errorf("negative %s %d", what, n)
	}
	return n, err
}

func readState(r *sqltypes.Reader, into AggState) (AggState, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagCount:
		s, err := stateFor[countState](into)
		if err != nil {
			return nil, err
		}
		n, err := readNonNeg(r, "COUNT")
		if err != nil {
			return nil, err
		}
		*s = countState{n: n}
		return s, nil
	case tagSum:
		s, err := stateFor[sumState](into)
		if err != nil {
			return nil, err
		}
		kb, err := r.Byte()
		if err != nil {
			return nil, err
		}
		kind := sqltypes.Kind(kb)
		if kind > sqltypes.KindDate {
			return nil, fmt.Errorf("unknown SUM kind %d", kb)
		}
		any, err := r.Bool()
		if err != nil {
			return nil, err
		}
		intSum, err := r.Varint()
		if err != nil {
			return nil, err
		}
		fltSum, err := r.Float()
		if err != nil {
			return nil, err
		}
		*s = sumState{kind: kind, any: any, intSum: intSum, fltSum: fltSum}
		return s, nil
	case tagAvg:
		s, err := stateFor[avgState](into)
		if err != nil {
			return nil, err
		}
		n, err := readNonNeg(r, "AVG count")
		if err != nil {
			return nil, err
		}
		sum, err := r.Float()
		if err != nil {
			return nil, err
		}
		*s = avgState{n: n, sum: sum}
		return s, nil
	case tagAvgExact:
		s, err := stateFor[avgState](into)
		if err != nil {
			return nil, err
		}
		n, err := readNonNeg(r, "AVG count")
		if err != nil {
			return nil, err
		}
		hi, err := r.Varint()
		if err != nil {
			return nil, err
		}
		lo, err := r.Uint64()
		if err != nil {
			return nil, err
		}
		if n == 0 && (hi != 0 || lo != 0) {
			return nil, fmt.Errorf("AVG of no rows with a non-zero sum")
		}
		*s = avgState{n: n, exact: true, hi: hi, lo: lo}
		return s, nil
	case tagMinMax:
		s, err := stateFor[minMaxState](into)
		if err != nil {
			return nil, err
		}
		wantLess, err := r.Bool()
		if err != nil {
			return nil, err
		}
		any, err := r.Bool()
		if err != nil {
			return nil, err
		}
		best, err := r.Value()
		if err != nil {
			return nil, err
		}
		*s = minMaxState{wantLess: wantLess, any: any, best: best}
		return s, nil
	case tagVar:
		s, err := stateFor[varState](into)
		if err != nil {
			return nil, err
		}
		sample, err := r.Bool()
		if err != nil {
			return nil, err
		}
		stddev, err := r.Bool()
		if err != nil {
			return nil, err
		}
		n, err := readNonNeg(r, "VAR count")
		if err != nil {
			return nil, err
		}
		mean, err := r.Float()
		if err != nil {
			return nil, err
		}
		m2, err := r.Float()
		if err != nil {
			return nil, err
		}
		*s = varState{n: n, mean: mean, m2: m2, sample: sample, stddev: stddev}
		return s, nil
	case tagAnyValue:
		s, err := stateFor[anyValueState](into)
		if err != nil {
			return nil, err
		}
		any, err := r.Bool()
		if err != nil {
			return nil, err
		}
		val, err := r.Value()
		if err != nil {
			return nil, err
		}
		*s = anyValueState{any: any, val: val}
		return s, nil
	case tagArgExtreme:
		s, err := stateFor[argExtremeState](into)
		if err != nil {
			return nil, err
		}
		wantLess, err := r.Bool()
		if err != nil {
			return nil, err
		}
		any, err := r.Bool()
		if err != nil {
			return nil, err
		}
		bestKey, err := r.Value()
		if err != nil {
			return nil, err
		}
		val, err := r.Value()
		if err != nil {
			return nil, err
		}
		*s = argExtremeState{wantLess: wantLess, any: any, bestKey: bestKey, val: val}
		return s, nil
	default:
		return nil, fmt.Errorf("unknown state tag %d", tag)
	}
}
