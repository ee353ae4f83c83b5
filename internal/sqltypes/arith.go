package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Arithmetic. NULL operands propagate NULL of the result kind. INT op INT
// yields INT except for division, which always yields DOUBLE: the paper's
// Listing 4 computes 0.60/0.47/0.67 from integer revenue and cost columns,
// so measure formulas require non-truncating division.

// Add returns a + b. For DATE + INT it returns a date shifted by days.
func Add(a, b Value) (Value, error) { return arith(a, b, "+") }

// Sub returns a - b. DATE - INT shifts by days; DATE - DATE yields the
// difference in days as INTEGER.
func Sub(a, b Value) (Value, error) { return arith(a, b, "-") }

// Mul returns a * b.
func Mul(a, b Value) (Value, error) { return arith(a, b, "*") }

// Div returns a / b as DOUBLE; division by zero yields NULL (engines
// differ here; NULL keeps measure ratios total-safe, and we document it).
func Div(a, b Value) (Value, error) { return arith(a, b, "/") }

// Mod returns MOD(a, b) over integers.
func Mod(a, b Value) (Value, error) { return arith(a, b, "%") }

func arith(a, b Value, op string) (Value, error) {
	// Date arithmetic first.
	if a.K == KindDate || b.K == KindDate {
		return dateArith(a, b, op)
	}
	if !a.K.Numeric() && a.K != KindUnknown {
		return Value{}, fmt.Errorf("operator %s: non-numeric operand of type %s", op, a.K)
	}
	if !b.K.Numeric() && b.K != KindUnknown {
		return Value{}, fmt.Errorf("operator %s: non-numeric operand of type %s", op, b.K)
	}
	if op == "/" {
		if a.Null || b.Null {
			return Null(KindFloat), nil
		}
		den := b.AsFloat()
		if den == 0 {
			return Null(KindFloat), nil
		}
		return NewFloat(a.AsFloat() / den), nil
	}
	kind := KindInt
	if a.K == KindFloat || b.K == KindFloat {
		kind = KindFloat
	}
	if a.Null || b.Null {
		return Null(kind), nil
	}
	if kind == KindInt {
		switch op {
		case "+":
			if s, ok := addInt(a.I, b.I); ok {
				return NewInt(s), nil
			}
			return Value{}, fmt.Errorf("INTEGER overflow in %d + %d", a.I, b.I)
		case "-":
			if s, ok := subInt(a.I, b.I); ok {
				return NewInt(s), nil
			}
			return Value{}, fmt.Errorf("INTEGER overflow in %d - %d", a.I, b.I)
		case "*":
			if s, ok := mulInt(a.I, b.I); ok {
				return NewInt(s), nil
			}
			return Value{}, fmt.Errorf("INTEGER overflow in %d * %d", a.I, b.I)
		case "%":
			if b.I == 0 {
				return Null(KindInt), nil
			}
			return NewInt(a.I % b.I), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return NewFloat(x + y), nil
	case "-":
		return NewFloat(x - y), nil
	case "*":
		return NewFloat(x * y), nil
	case "%":
		if y == 0 {
			return Null(KindFloat), nil
		}
		if !inInt64Range(x) || !inInt64Range(y) {
			return Value{}, fmt.Errorf("MOD: operand out of INTEGER range")
		}
		// y != 0 does not imply int64(y) != 0 (e.g. MOD(1.0, 0.5)):
		// guard the truncated divisor or the modulo below faults.
		yi := int64(y)
		if yi == 0 {
			return Null(KindFloat), nil
		}
		return NewFloat(float64(int64(x) % yi)), nil
	}
	return Value{}, fmt.Errorf("unknown operator %s", op)
}

// addInt, subInt, mulInt are checked int64 arithmetic: ok is false on
// two's-complement overflow, which the engine surfaces as ErrRuntime
// instead of silently wrapping.
func addInt(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subInt(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulInt(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	// MinInt64 has no positive counterpart, so the p/b != a probe below
	// cannot detect MinInt64 * -1; handle the extreme explicitly.
	if a == math.MinInt64 || b == math.MinInt64 {
		if a == 1 {
			return b, true
		}
		if b == 1 {
			return a, true
		}
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// AddInt64, SubInt64, MulInt64 expose the checked int64 arithmetic to the
// vectorized kernels, which must reproduce the scalar operators' overflow
// behavior exactly.
func AddInt64(a, b int64) (int64, bool) { return addInt(a, b) }

// SubInt64 is checked int64 subtraction; see AddInt64.
func SubInt64(a, b int64) (int64, bool) { return subInt(a, b) }

// MulInt64 is checked int64 multiplication; see AddInt64.
func MulInt64(a, b int64) (int64, bool) { return mulInt(a, b) }

// InInt64Range reports whether f truncates to an in-range int64; the
// vectorized MOD kernel shares it with the scalar operator.
func InInt64Range(f float64) bool { return inInt64Range(f) }

// inInt64Range reports whether f converts to int64 without leaving the
// type's range (NaN and ±Inf are out of range).
func inInt64Range(f float64) bool {
	// 2^63 is exact in float64; MaxInt64 itself is not, so the upper
	// bound is strict.
	return f >= math.MinInt64 && f < math.MaxInt64
}

func dateArith(a, b Value, op string) (Value, error) {
	switch {
	case a.K == KindDate && b.K == KindDate && op == "-":
		if a.Null || b.Null {
			return Null(KindInt), nil
		}
		return NewInt(a.I - b.I), nil
	case a.K == KindDate && (b.K == KindInt || b.K == KindUnknown) && (op == "+" || op == "-"):
		if a.Null || b.Null {
			return Null(KindDate), nil
		}
		if op == "+" {
			return NewDateDays(a.I + b.I), nil
		}
		return NewDateDays(a.I - b.I), nil
	case b.K == KindDate && (a.K == KindInt || a.K == KindUnknown) && op == "+":
		if a.Null || b.Null {
			return Null(KindDate), nil
		}
		return NewDateDays(a.I + b.I), nil
	default:
		return Value{}, fmt.Errorf("invalid date arithmetic: %s %s %s", a.K, op, b.K)
	}
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	if !a.K.Numeric() && a.K != KindUnknown {
		return Value{}, fmt.Errorf("unary minus: non-numeric operand of type %s", a.K)
	}
	if a.Null {
		return a, nil
	}
	if a.K == KindInt {
		if a.I == math.MinInt64 {
			return Value{}, fmt.Errorf("INTEGER overflow in -(%d)", a.I)
		}
		return NewInt(-a.I), nil
	}
	return NewFloat(-a.F()), nil
}

// Cast converts v to kind, following SQL CAST semantics for the supported
// kinds. NULL casts to NULL of the target kind. Invalid conversions return
// an error (e.g. CAST('abc' AS INTEGER)).
func Cast(v Value, kind Kind) (Value, error) {
	if v.Null {
		return Null(kind), nil
	}
	if v.K == kind {
		return v, nil
	}
	switch kind {
	case KindBool:
		switch v.K {
		case KindString:
			switch strings.ToUpper(strings.TrimSpace(v.S)) {
			case "TRUE", "T", "1":
				return NewBool(true), nil
			case "FALSE", "F", "0":
				return NewBool(false), nil
			}
			return Value{}, fmt.Errorf("cannot cast %q to BOOLEAN", v.S)
		case KindInt:
			return NewBool(v.I != 0), nil
		}
	case KindInt:
		switch v.K {
		case KindFloat:
			if !inInt64Range(v.F()) {
				return Value{}, fmt.Errorf("cannot cast %v to INTEGER: out of range", v.F())
			}
			return NewInt(int64(v.F())), nil
		case KindBool:
			return NewInt(b2i(v.B)), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to INTEGER", v.S)
			}
			return NewInt(i), nil
		}
	case KindFloat:
		switch v.K {
		case KindInt:
			return NewFloat(float64(v.I)), nil
		case KindBool:
			return NewFloat(float64(b2i(v.B))), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to DOUBLE", v.S)
			}
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindDate:
		if v.K == KindString {
			return ParseDate(strings.TrimSpace(v.S))
		}
	}
	return Value{}, fmt.Errorf("cannot cast %s to %s", v.K, kind)
}

// And implements SQL three-valued AND.
func And(a, b Value) Value {
	if a.IsFalse() || b.IsFalse() {
		return NewBool(false)
	}
	if a.Null || b.Null {
		return Null(KindBool)
	}
	return NewBool(true)
}

// Or implements SQL three-valued OR.
func Or(a, b Value) Value {
	if a.IsTrue() || b.IsTrue() {
		return NewBool(true)
	}
	if a.Null || b.Null {
		return Null(KindBool)
	}
	return NewBool(false)
}

// Not implements SQL three-valued NOT.
func Not(a Value) Value {
	if a.Null {
		return Null(KindBool)
	}
	return NewBool(!a.B)
}
