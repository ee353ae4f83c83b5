package sqltypes

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"time"
)

// Value is a single SQL value. The zero Value is an untyped NULL.
//
// Dates are stored in I as days since 1970-01-01 (proleptic Gregorian,
// UTC); this makes date comparison and grouping cheap while YEAR/MONTH
// etc. convert through time.Time on demand. A DOUBLE keeps its IEEE-754
// bits in I (read it with F): a value has one numeric payload, never
// two, and every stored row is 8 bytes per column smaller for it.
type Value struct {
	K    Kind
	Null bool
	B    bool
	I    int64
	S    string
}

// Constructors.

// Null returns a NULL of kind k (use KindUnknown for a bare NULL literal).
func Null(k Kind) Value { return Value{K: k, Null: true} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value { return Value{K: KindBool, B: b} }

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(f))} }

// F returns the payload of a DOUBLE value.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewDate returns a DATE value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{K: KindDate, I: t.Unix() / 86400}
}

// NewDateDays returns a DATE value from days since the Unix epoch.
func NewDateDays(days int64) Value { return Value{K: KindDate, I: days} }

// ParseDate parses 'YYYY-MM-DD' (also accepting '/' separators, as the
// paper's tables print dates like 2023/11/28): four digits, two digits of
// a month, two digits of a day the month has, and the same separator
// twice. These are exactly the strings time.Parse accepts for the layouts
// 2006-01-02 and 2006/01/02; the bytes are read by hand, which costs no
// allocation.
func ParseDate(s string) (Value, error) {
	if len(s) == 10 && (s[4] == '-' || s[4] == '/') && s[7] == s[4] {
		y, yok := digits(s[0:4])
		m, mok := digits(s[5:7])
		d, dok := digits(s[8:10])
		if yok && mok && dok && m >= 1 && m <= 12 && d >= 1 && d <= daysIn(m, y) {
			return NewDate(y, time.Month(m), d), nil
		}
	}
	return Value{}, fmt.Errorf("invalid DATE literal %q", s)
}

// digits reads s, which must be all decimal digits.
func digits(s string) (n int, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// monthDays are the days of each month of a common year.
var monthDays = [13]int{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// daysIn returns the number of days of month m (1–12) of year y in the
// proleptic Gregorian calendar.
func daysIn(m, y int) int {
	if m == 2 && y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		return 29
	}
	return monthDays[m]
}

// Time returns the civil date as a time.Time (midnight UTC). Only valid
// for DATE values.
func (v Value) Time() time.Time { return time.Unix(v.I*86400, 0).UTC() }

// Year returns the proleptic Gregorian year of a DATE value — what
// v.Time().Year() gives — by civil-from-days integer arithmetic over
// 400-year eras of 146 097 days, without building a time.Time.
func (v Value) Year() int64 {
	z := v.I + 719468 // days since 0000-03-01
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365], from March 1
	y := era*400 + yoe
	if doy >= 306 { // January or February: the next civil year
		y++
	}
	return y
}

// IsTrue reports whether v is a non-null TRUE boolean.
func (v Value) IsTrue() bool { return v.K == KindBool && !v.Null && v.B }

// IsFalse reports whether v is a non-null FALSE boolean.
func (v Value) IsFalse() bool { return v.K == KindBool && !v.Null && !v.B }

// AsFloat returns the numeric value as float64. Valid for INT and FLOAT.
func (v Value) AsFloat() float64 {
	if v.K == KindInt {
		return float64(v.I)
	}
	return v.F()
}

// String renders the value in SQL literal style; NULL renders as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.K {
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return formatFloat(v.F())
	case KindString:
		return v.S
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return "NULL"
	}
}

// SQLLiteral renders the value as a SQL literal that re-parses to the same
// value (strings quoted, dates as DATE '...').
func (v Value) SQLLiteral() string {
	if v.Null {
		return "NULL"
	}
	switch v.K {
	case KindString:
		return "'" + escapeQuotes(v.S) + "'"
	case KindDate:
		return "DATE '" + v.Time().Format("2006-01-02") + "'"
	default:
		return v.String()
	}
}

func escapeQuotes(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', 1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Compare orders two non-null values of compatible kinds. It returns
// -1, 0 or +1. Numeric kinds compare by value across INT/FLOAT. Callers
// must handle NULLs first (SQL gives them no order in comparisons; ORDER
// BY decides NULLS FIRST/LAST separately).
func Compare(a, b Value) (int, error) {
	if a.Null || b.Null {
		return 0, fmt.Errorf("Compare called with NULL operand")
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return cmpOrdered(a.I, b.I), nil
	case a.K.Numeric() && b.K.Numeric():
		return cmpOrdered(a.AsFloat(), b.AsFloat()), nil
	case a.K == KindString && b.K == KindString:
		return cmpOrdered(a.S, b.S), nil
	case a.K == KindDate && b.K == KindDate:
		return cmpOrdered(a.I, b.I), nil
	case a.K == KindBool && b.K == KindBool:
		return cmpOrdered(b2i(a.B), b2i(b.B)), nil
	default:
		return 0, fmt.Errorf("cannot compare %s with %s", a.K, b.K)
	}
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// NotDistinct implements IS NOT DISTINCT FROM: NULLs compare equal to each
// other and unequal to every non-null value. The paper relies on this for
// evaluation-context predicates over nullable dimensions (§3.3 footnote).
func NotDistinct(a, b Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// AppendKey appends a canonical byte encoding of v to dst, suitable for
// use as a hash-map key component in GROUP BY / join / memo caches. The
// encoding folds INT and FLOAT of equal value to the same key and
// distinguishes NULL from every value. An INTEGER its float64 cannot
// represent (beyond ±2^53) has no FLOAT to fold with: it is encoded
// exactly, under a tag of its own, so neighbouring integers stay apart.
func (v Value) AppendKey(dst []byte) []byte {
	if v.Null {
		return append(dst, 0)
	}
	switch v.K {
	case KindBool:
		if v.B {
			return append(dst, 1, 1)
		}
		return append(dst, 1, 0)
	case KindInt, KindFloat:
		f := v.AsFloat()
		if v.K == KindInt {
			f = float64(v.I)
			// float64(MaxInt64) is 2^63, which int64 cannot hold.
			if f >= 1<<63 || int64(f) != v.I {
				dst = append(dst, 5)
				return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
			}
		}
		// Canonicalize -0 to +0 so they group together.
		if f == 0 {
			f = 0
		}
		dst = append(dst, 2)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		return append(dst, buf[:]...)
	case KindString:
		dst = append(dst, 3)
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(len(v.S)))
		dst = append(dst, buf[:]...)
		return append(dst, v.S...)
	case KindDate:
		dst = append(dst, 4)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		return append(dst, buf[:]...)
	default:
		return append(dst, 0)
	}
}

// KeyEqual reports whether a and b have one key encoding (AppendKey),
// without encoding a string: grouping tables compare candidate keys so.
func KeyEqual(a, b Value) bool {
	if a.K == b.K && !a.Null && !b.Null {
		switch a.K {
		case KindBool:
			return a.B == b.B
		case KindInt, KindDate:
			return a.I == b.I
		case KindString:
			return a.S == b.S
		}
	}
	if a.K == KindString && !a.Null || b.K == KindString && !b.Null {
		return false // a string's tag is no other kind's
	}
	var x, y [9]byte
	return string(a.AppendKey(x[:0])) == string(b.AppendKey(y[:0]))
}

// KeyHash hashes v's key encoding (AppendKey) under seed, so values
// KeyEqual finds equal hash alike.
func (v Value) KeyHash(seed maphash.Seed) uint64 {
	if v.K == KindString && !v.Null {
		return maphash.String(seed, v.S)
	}
	var buf [9]byte
	return maphash.Bytes(seed, v.AppendKey(buf[:0]))
}

// RowKey encodes a slice of values as a single map key.
func RowKey(vals []Value) string {
	var dst []byte
	for _, v := range vals {
		dst = v.AppendKey(dst)
	}
	return string(dst)
}
