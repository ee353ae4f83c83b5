package sqltypes

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindFromName(t *testing.T) {
	cases := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "BigInt": KindInt,
		"double": KindFloat, "DECIMAL": KindFloat,
		"varchar": KindString, "STRING": KindString,
		"date": KindDate, "boolean": KindBool, "nope": KindUnknown,
	}
	for name, want := range cases {
		if got := KindFromName(name); got != want {
			t.Errorf("KindFromName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	ty := Type{Kind: KindFloat, Measure: true}
	if got := ty.String(); got != "DOUBLE MEASURE" {
		t.Errorf("got %q", got)
	}
	if got := ty.Scalar().String(); got != "DOUBLE" {
		t.Errorf("Scalar: got %q", got)
	}
	if !ty.Scalar().AsMeasure().Measure {
		t.Error("AsMeasure should set the flag")
	}
}

func TestCommonType(t *testing.T) {
	if k, err := CommonType(KindInt, KindFloat); err != nil || k != KindFloat {
		t.Errorf("int/float: %v %v", k, err)
	}
	if k, err := CommonType(KindUnknown, KindDate); err != nil || k != KindDate {
		t.Errorf("unknown/date: %v %v", k, err)
	}
	if _, err := CommonType(KindString, KindInt); err == nil {
		t.Error("string/int should be incompatible")
	}
}

func TestDateRoundTrip(t *testing.T) {
	v := NewDate(2023, time.November, 28)
	if got := v.String(); got != "2023-11-28" {
		t.Errorf("String = %q", got)
	}
	p, err := ParseDate("2023/11/28")
	if err != nil {
		t.Fatal(err)
	}
	if !NotDistinct(v, p) {
		t.Errorf("slash-parsed date %v != %v", p, v)
	}
	if v.Time().Year() != 2023 || v.Time().Month() != time.November || v.Time().Day() != 28 {
		t.Errorf("Time() = %v", v.Time())
	}
	if _, err := ParseDate("not a date"); err == nil {
		t.Error("expected error")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewDate(2024, 1, 1), NewDate(2023, 12, 31), 1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(NewString("x"), NewInt(1)); err == nil {
		t.Error("string vs int should error")
	}
	if _, err := Compare(Null(KindInt), NewInt(1)); err == nil {
		t.Error("null operand should error")
	}
}

func TestNotDistinct(t *testing.T) {
	if !NotDistinct(Null(KindInt), Null(KindString)) {
		t.Error("NULL should not be distinct from NULL")
	}
	if NotDistinct(Null(KindInt), NewInt(0)) {
		t.Error("NULL should be distinct from 0")
	}
	if !NotDistinct(NewInt(2), NewFloat(2)) {
		t.Error("2 and 2.0 should not be distinct")
	}
}

func TestArith(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := mustV(Add(NewInt(2), NewInt(3))); v.K != KindInt || v.I != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := mustV(Div(NewInt(3), NewInt(2))); v.K != KindFloat || v.F() != 1.5 {
		t.Errorf("3/2 = %v (division must not truncate)", v)
	}
	if v := mustV(Div(NewInt(3), NewInt(0))); !v.Null {
		t.Errorf("3/0 = %v, want NULL", v)
	}
	if v := mustV(Mul(NewFloat(2), NewInt(3))); v.K != KindFloat || v.F() != 6 {
		t.Errorf("2.0*3 = %v", v)
	}
	if v := mustV(Sub(NewInt(1), Null(KindInt))); !v.Null || v.K != KindInt {
		t.Errorf("1-NULL = %v", v)
	}
	if v := mustV(Mod(NewInt(7), NewInt(3))); v.I != 1 {
		t.Errorf("7%%3 = %v", v)
	}
	if v := mustV(Neg(NewInt(7))); v.I != -7 {
		t.Errorf("-7 = %v", v)
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Error("string+int should error")
	}
}

func TestDateArith(t *testing.T) {
	d := NewDate(2024, 2, 28)
	v, err := Add(d, NewInt(2))
	if err != nil || v.String() != "2024-03-01" {
		t.Errorf("2024-02-28 + 2 = %v, %v (2024 is a leap year)", v, err)
	}
	diff, err := Sub(NewDate(2024, 1, 10), NewDate(2024, 1, 1))
	if err != nil || diff.I != 9 {
		t.Errorf("date diff = %v, %v", diff, err)
	}
	if _, err := Mul(d, NewInt(2)); err == nil {
		t.Error("date * int should error")
	}
}

func TestCast(t *testing.T) {
	v, err := Cast(NewString("42"), KindInt)
	if err != nil || v.I != 42 {
		t.Errorf("cast '42' to int: %v, %v", v, err)
	}
	v, err = Cast(NewFloat(2.9), KindInt)
	if err != nil || v.I != 2 {
		t.Errorf("cast 2.9 to int: %v, %v", v, err)
	}
	v, err = Cast(NewInt(1), KindBool)
	if err != nil || !v.B {
		t.Errorf("cast 1 to bool: %v, %v", v, err)
	}
	v, err = Cast(NewString("2024-01-02"), KindDate)
	if err != nil || v.String() != "2024-01-02" {
		t.Errorf("cast to date: %v, %v", v, err)
	}
	if _, err := Cast(NewString("abc"), KindInt); err == nil {
		t.Error("cast 'abc' to int should error")
	}
	v, err = Cast(Null(KindString), KindInt)
	if err != nil || !v.Null || v.K != KindInt {
		t.Errorf("cast NULL: %v, %v", v, err)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tr, fa, nu := NewBool(true), NewBool(false), Null(KindBool)
	if !And(tr, nu).Null {
		t.Error("TRUE AND NULL should be NULL")
	}
	if !And(fa, nu).IsFalse() {
		t.Error("FALSE AND NULL should be FALSE")
	}
	if !Or(tr, nu).IsTrue() {
		t.Error("TRUE OR NULL should be TRUE")
	}
	if !Or(fa, nu).Null {
		t.Error("FALSE OR NULL should be NULL")
	}
	if !Not(nu).Null {
		t.Error("NOT NULL should be NULL")
	}
	if !Not(fa).IsTrue() {
		t.Error("NOT FALSE should be TRUE")
	}
}

func TestRowKey(t *testing.T) {
	// INT and FLOAT of equal value must share a key (GROUP BY folding).
	if RowKey([]Value{NewInt(2)}) != RowKey([]Value{NewFloat(2)}) {
		t.Error("2 and 2.0 should share a group key")
	}
	if RowKey([]Value{Null(KindInt)}) == RowKey([]Value{NewInt(0)}) {
		t.Error("NULL and 0 must not share a key")
	}
	// Adjacent strings must not be confusable ("a","bc" vs "ab","c").
	if RowKey([]Value{NewString("a"), NewString("bc")}) == RowKey([]Value{NewString("ab"), NewString("c")}) {
		t.Error("string boundaries must be preserved in keys")
	}
	if RowKey([]Value{NewBool(true)}) == RowKey([]Value{NewInt(1)}) {
		t.Error("bool and int keys must differ")
	}
}

func TestValueStringFormat(t *testing.T) {
	if got := NewFloat(0.6).String(); got != "0.6" {
		t.Errorf("0.6 formats as %q", got)
	}
	if got := NewFloat(2).String(); got != "2.0" {
		t.Errorf("2.0 formats as %q", got)
	}
	if got := NewString("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NewDate(2024, 5, 6).SQLLiteral(); got != "DATE '2024-05-06'" {
		t.Errorf("date literal = %q", got)
	}
	if got := Null(KindInt).SQLLiteral(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
}

// Property: Compare is antisymmetric and consistent with NotDistinct for
// random integers.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		c1, err1 := Compare(va, vb)
		c2, err2 := Compare(vb, va)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == NotDistinct(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arithmetic on floats matches Go arithmetic.
func TestArithProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		s, err := Add(NewFloat(a), NewFloat(b))
		if err != nil || s.F() != a+b {
			return false
		}
		d, err := Div(NewFloat(a), NewFloat(b))
		if err != nil {
			return false
		}
		if b == 0 {
			return d.Null
		}
		return d.F() == a/b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDateYearMatchesTime: Year agrees with the time package on every
// day of ±10 000 years — negative day numbers, century and 400-year
// leap rules, every February 29 and March 1 included.
func TestDateYearMatchesTime(t *testing.T) {
	first := time.Date(-10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400
	last := time.Date(10000, 12, 31, 0, 0, 0, 0, time.UTC).Unix() / 86400
	leapDays := 0
	for d := first; d <= last; d++ {
		v := NewDateDays(d)
		tm := v.Time()
		if got, want := v.Year(), int64(tm.Year()); got != want {
			t.Fatalf("day %d (%s): Year = %d, want %d", d, tm.Format("2006-01-02"), got, want)
		}
		if tm.Month() == time.February && tm.Day() == 29 {
			leapDays++
		}
	}
	// 20 001 years hold 4 851 leap days: the 5 001 years divisible by 4
	// but the 150 centuries not divisible by 400.
	if leapDays != 4851 {
		t.Fatalf("%d leap days in the range, want 4851", leapDays)
	}
}
