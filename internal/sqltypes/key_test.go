package sqltypes

import (
	"bytes"
	"hash/maphash"
	"math"
	"testing"
)

// TestKeyEqualIsAppendKeyEquality: KeyEqual holds exactly when the two
// key encodings are the same bytes, across kinds, NULLs, -0, NaN and
// integers beyond a float64's exact range; equal keys hash alike
// (KeyHash).
func TestKeyEqualIsAppendKeyEquality(t *testing.T) {
	vals := []Value{
		Null(KindInt), Null(KindString), Null(KindUnknown), {K: KindUnknown},
		NewBool(true), NewBool(false),
		NewInt(0), NewInt(1), NewInt(-3), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(-3),
		NewFloat(1.5), NewFloat(math.NaN()), NewFloat(math.Inf(1)),
		NewInt(1<<53 + 1), NewFloat(1<<53 + 2), NewInt(1<<53 + 2), NewInt(math.MaxInt64), NewFloat(1 << 63),
		NewInt(math.MinInt64), NewFloat(-1 << 63),
		NewString(""), NewString("a"), NewString("\x00"), NewString("1"),
		NewDateDays(0), NewDateDays(1), NewDateDays(19000),
	}
	seed := maphash.MakeSeed()
	for _, a := range vals {
		for _, b := range vals {
			want := bytes.Equal(a.AppendKey(nil), b.AppendKey(nil))
			if got := KeyEqual(a, b); got != want {
				t.Errorf("KeyEqual(%#v, %#v) = %v, encodings equal: %v", a, b, got, want)
			}
			if want && a.KeyHash(seed) != b.KeyHash(seed) {
				t.Errorf("%#v and %#v are one key of two hashes", a, b)
			}
		}
	}
}
