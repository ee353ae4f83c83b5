package fn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func evalScalar(t *testing.T, name string, args ...sqltypes.Value) sqltypes.Value {
	t.Helper()
	sc, ok := LookupScalar(name)
	if !ok {
		t.Fatalf("missing function %s", name)
	}
	v, err := sc.Eval(args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestOperators(t *testing.T) {
	if v := evalScalar(t, "+", sqltypes.NewInt(2), sqltypes.NewInt(3)); v.I != 5 {
		t.Errorf("2+3=%v", v)
	}
	if v := evalScalar(t, "/", sqltypes.NewInt(1), sqltypes.NewInt(4)); v.F() != 0.25 {
		t.Errorf("1/4=%v", v)
	}
	if v := evalScalar(t, "=", sqltypes.NewString("a"), sqltypes.NewString("a")); !v.B {
		t.Errorf("'a'='a' should be true")
	}
	if v := evalScalar(t, "<=", sqltypes.NewInt(2), sqltypes.NewFloat(2.0)); !v.B {
		t.Errorf("2<=2.0 should be true")
	}
	if v := evalScalar(t, "||", sqltypes.NewString("a"), sqltypes.NewInt(1)); v.S != "a1" {
		t.Errorf("'a'||1=%v", v)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h__llo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "a%c%", true},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		v := evalScalar(t, "LIKE", sqltypes.NewString(c.s), sqltypes.NewString(c.p))
		if v.B != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, v.B, c.want)
		}
		n := evalScalar(t, "NOT LIKE", sqltypes.NewString(c.s), sqltypes.NewString(c.p))
		if n.B == c.want {
			t.Errorf("NOT LIKE should invert for %q %q", c.s, c.p)
		}
	}
}

func TestDateFunctions(t *testing.T) {
	d := sqltypes.NewDate(2024, 11, 28)
	if v := evalScalar(t, "YEAR", d); v.I != 2024 {
		t.Errorf("YEAR=%v", v)
	}
	if v := evalScalar(t, "MONTH", d); v.I != 11 {
		t.Errorf("MONTH=%v", v)
	}
	if v := evalScalar(t, "DAY", d); v.I != 28 {
		t.Errorf("DAY=%v", v)
	}
	if v := evalScalar(t, "QUARTER", d); v.I != 4 {
		t.Errorf("QUARTER=%v", v)
	}
	// 2024-11-28 is a Thursday: DAYOFWEEK = 5 (1 = Sunday).
	if v := evalScalar(t, "DAYOFWEEK", d); v.I != 5 {
		t.Errorf("DAYOFWEEK=%v", v)
	}
	if v := evalScalar(t, "DATE_TRUNC", sqltypes.NewString("month"), d); v.String() != "2024-11-01" {
		t.Errorf("DATE_TRUNC month=%v", v)
	}
	if v := evalScalar(t, "DATE_TRUNC", sqltypes.NewString("quarter"), d); v.String() != "2024-10-01" {
		t.Errorf("DATE_TRUNC quarter=%v", v)
	}
	if v := evalScalar(t, "DATE_TRUNC", sqltypes.NewString("year"), d); v.String() != "2024-01-01" {
		t.Errorf("DATE_TRUNC year=%v", v)
	}
	// 2024-11-28 truncated to week (Monday) = 2024-11-25.
	if v := evalScalar(t, "DATE_TRUNC", sqltypes.NewString("week"), d); v.String() != "2024-11-25" {
		t.Errorf("DATE_TRUNC week=%v", v)
	}
}

func TestStringFunctions(t *testing.T) {
	if v := evalScalar(t, "UPPER", sqltypes.NewString("abc")); v.S != "ABC" {
		t.Errorf("UPPER=%v", v)
	}
	if v := evalScalar(t, "SUBSTRING", sqltypes.NewString("hello"), sqltypes.NewInt(2), sqltypes.NewInt(3)); v.S != "ell" {
		t.Errorf("SUBSTRING=%v", v)
	}
	if v := evalScalar(t, "SUBSTRING", sqltypes.NewString("hello"), sqltypes.NewInt(4)); v.S != "lo" {
		t.Errorf("SUBSTRING no-len=%v", v)
	}
	if v := evalScalar(t, "LEFT", sqltypes.NewString("hello"), sqltypes.NewInt(2)); v.S != "he" {
		t.Errorf("LEFT=%v", v)
	}
	if v := evalScalar(t, "RIGHT", sqltypes.NewString("hello"), sqltypes.NewInt(2)); v.S != "lo" {
		t.Errorf("RIGHT=%v", v)
	}
	if v := evalScalar(t, "LENGTH", sqltypes.NewString("héllo")); v.I != 5 {
		t.Errorf("LENGTH=%v (rune count)", v)
	}
	if v := evalScalar(t, "REPLACE", sqltypes.NewString("aXbX"), sqltypes.NewString("X"), sqltypes.NewString("-")); v.S != "a-b-" {
		t.Errorf("REPLACE=%v", v)
	}
	if v := evalScalar(t, "CONCAT", sqltypes.NewString("a"), sqltypes.NewInt(1), sqltypes.NewString("b")); v.S != "a1b" {
		t.Errorf("CONCAT=%v", v)
	}
}

func TestConditionals(t *testing.T) {
	if v := evalScalar(t, "COALESCE", sqltypes.Null(sqltypes.KindInt), sqltypes.NewInt(7)); v.I != 7 {
		t.Errorf("COALESCE=%v", v)
	}
	if v := evalScalar(t, "NULLIF", sqltypes.NewInt(3), sqltypes.NewInt(3)); !v.Null {
		t.Errorf("NULLIF equal should be NULL, got %v", v)
	}
	if v := evalScalar(t, "NULLIF", sqltypes.NewInt(3), sqltypes.NewInt(4)); v.I != 3 {
		t.Errorf("NULLIF=%v", v)
	}
	if v := evalScalar(t, "GREATEST", sqltypes.NewInt(1), sqltypes.NewInt(9), sqltypes.NewInt(5)); v.I != 9 {
		t.Errorf("GREATEST=%v", v)
	}
	if v := evalScalar(t, "LEAST", sqltypes.NewFloat(1.5), sqltypes.NewInt(2)); v.F() != 1.5 {
		t.Errorf("LEAST=%v", v)
	}
}

func TestNumericFunctions(t *testing.T) {
	if v := evalScalar(t, "ABS", sqltypes.NewInt(-4)); v.I != 4 {
		t.Errorf("ABS=%v", v)
	}
	if v := evalScalar(t, "ROUND", sqltypes.NewFloat(2.567), sqltypes.NewInt(1)); v.F() != 2.6 {
		t.Errorf("ROUND=%v", v)
	}
	if v := evalScalar(t, "FLOOR", sqltypes.NewFloat(2.9)); v.F() != 2 {
		t.Errorf("FLOOR=%v", v)
	}
	if v := evalScalar(t, "CEIL", sqltypes.NewFloat(2.1)); v.F() != 3 {
		t.Errorf("CEIL=%v", v)
	}
	if v := evalScalar(t, "SIGN", sqltypes.NewFloat(-0.5)); v.I != -1 {
		t.Errorf("SIGN=%v", v)
	}
	if v := evalScalar(t, "POWER", sqltypes.NewInt(2), sqltypes.NewInt(10)); v.F() != 1024 {
		t.Errorf("POWER=%v", v)
	}
	if v := evalScalar(t, "NEG", sqltypes.NewInt(5)); v.I != -5 {
		t.Errorf("NEG=%v", v)
	}
	if _, err := MustLookupScalar("SQRT").Eval([]sqltypes.Value{sqltypes.NewFloat(-1)}); err == nil {
		t.Error("SQRT(-1) should error")
	}
	if _, err := MustLookupScalar("LN").Eval([]sqltypes.Value{sqltypes.NewFloat(0)}); err == nil {
		t.Error("LN(0) should error")
	}
}

func TestAggregates(t *testing.T) {
	run := func(name string, rows ...[]sqltypes.Value) sqltypes.Value {
		t.Helper()
		agg, ok := LookupAgg(name)
		if !ok {
			t.Fatalf("missing aggregate %s", name)
		}
		var types []sqltypes.Type
		if len(rows) > 0 {
			for _, v := range rows[0] {
				types = append(types, sqltypes.Type{Kind: v.K})
			}
		}
		state := agg.New(types)
		for _, r := range rows {
			if err := state.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		return state.Result()
	}
	one := func(vals ...int64) [][]sqltypes.Value {
		rows := make([][]sqltypes.Value, len(vals))
		for i, v := range vals {
			rows[i] = []sqltypes.Value{sqltypes.NewInt(v)}
		}
		return rows
	}
	if v := run("SUM", one(1, 2, 3)...); v.I != 6 {
		t.Errorf("SUM=%v", v)
	}
	if v := run("AVG", one(1, 2, 3)...); v.F() != 2 {
		t.Errorf("AVG=%v", v)
	}
	if v := run("MIN", one(5, 2, 9)...); v.I != 2 {
		t.Errorf("MIN=%v", v)
	}
	if v := run("MAX", one(5, 2, 9)...); v.I != 9 {
		t.Errorf("MAX=%v", v)
	}
	if v := run("COUNT", one(5, 2)...); v.I != 2 {
		t.Errorf("COUNT=%v", v)
	}
	if v := run("ANY_VALUE", one(7, 8)...); v.I != 7 {
		t.Errorf("ANY_VALUE=%v", v)
	}
	if v := run("VAR_POP", one(2, 4, 4, 4, 5, 5, 7, 9)...); v.F() != 4 {
		t.Errorf("VAR_POP=%v", v)
	}
	if v := run("STDDEV_POP", one(2, 4, 4, 4, 5, 5, 7, 9)...); v.F() != 2 {
		t.Errorf("STDDEV_POP=%v", v)
	}
	// Empty SUM is NULL; empty COUNT is 0.
	if v := run("SUM"); !v.Null {
		t.Errorf("empty SUM=%v", v)
	}
	if v := run("COUNT"); v.I != 0 {
		t.Errorf("empty COUNT=%v", v)
	}
	// ARG_MAX(x, y): value of x at max y.
	argmax := run("ARG_MAX",
		[]sqltypes.Value{sqltypes.NewString("old"), sqltypes.NewInt(1)},
		[]sqltypes.Value{sqltypes.NewString("new"), sqltypes.NewInt(9)},
		[]sqltypes.Value{sqltypes.NewString("mid"), sqltypes.NewInt(5)},
	)
	if argmax.S != "new" {
		t.Errorf("ARG_MAX=%v", argmax)
	}
}

func TestAggArity(t *testing.T) {
	count, _ := LookupAgg("COUNT")
	if err := CheckAggArity(count, 0, true); err != nil {
		t.Errorf("COUNT(*) should be allowed: %v", err)
	}
	sum, _ := LookupAgg("SUM")
	if err := CheckAggArity(sum, 0, true); err == nil {
		t.Error("SUM(*) should be rejected")
	}
	if err := CheckAggArity(sum, 2, false); err == nil {
		t.Error("SUM with 2 args should be rejected")
	}
}

func TestWindowRegistry(t *testing.T) {
	if !IsWindowOnly("row_number") || IsWindowOnly("SUM") {
		t.Error("window-only classification wrong")
	}
	typ, err := WindowRet("LAG", []sqltypes.Type{{Kind: sqltypes.KindString}})
	if err != nil || typ.Kind != sqltypes.KindString {
		t.Errorf("LAG type: %v %v", typ, err)
	}
	if _, err := WindowRet("FIRST_VALUE", nil); err == nil {
		t.Error("FIRST_VALUE with no args should error")
	}
}

// Property: Welford variance matches the naive formula.
func TestVarianceProperty(t *testing.T) {
	f := func(xs []int16) bool {
		if len(xs) < 2 {
			return true
		}
		agg, _ := LookupAgg("VAR_POP")
		state := agg.New([]sqltypes.Type{{Kind: sqltypes.KindFloat}})
		var sum, sumsq float64
		for _, x := range xs {
			v := float64(x)
			sum += v
			sumsq += v * v
			if err := state.Add([]sqltypes.Value{sqltypes.NewFloat(v)}); err != nil {
				return false
			}
		}
		n := float64(len(xs))
		naive := sumsq/n - (sum/n)*(sum/n)
		got := state.Result().F()
		diff := naive - got
		if diff < 0 {
			diff = -diff
		}
		scale := naive
		if scale < 1 {
			scale = 1
		}
		return diff/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAggStatesCopyWhatTheyKeep: the executor hands Add a slice that
// aliases an input row or a reused buffer and overwrites it afterwards.
// For every registered aggregate and every argument kind it accepts, a
// state fed such slices — left untouched by Add, clobbered right after —
// must report the Result and Merge into the Result of a state fed
// private copies.
func TestAggStatesCopyWhatTheyKeep(t *testing.T) {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString}
	value := func(k sqltypes.Kind, i int) sqltypes.Value {
		n := (i*7 + 3) % 11
		switch k {
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(float64(n) + 0.25)
		case sqltypes.KindString:
			return sqltypes.NewString(string(rune('a' + n)))
		}
		return sqltypes.NewInt(int64(n))
	}
	clobber := sqltypes.NewString("clobbered")
	same := func(a, b sqltypes.Value) bool {
		return sqltypes.RowKey([]sqltypes.Value{a}) == sqltypes.RowKey([]sqltypes.Value{b})
	}
	checked := 0
	for name, def := range aggs {
		for _, k := range kinds {
			types := make([]sqltypes.Type, def.MaxArgs)
			for j := range types {
				types[j] = sqltypes.Type{Kind: k}
			}
			if _, err := def.Ret(types); err != nil {
				continue
			}
			aliased, private := def.New(types), def.New(types)
			buf := make([]sqltypes.Value, len(types))
			for i := 0; i < 6; i++ {
				for j := range buf {
					buf[j] = value(k, i+j)
				}
				before := append([]sqltypes.Value(nil), buf...)
				if err := aliased.Add(buf); err != nil {
					t.Fatalf("%s(%v): %v", name, k, err)
				}
				for j := range buf {
					if !same(buf[j], before[j]) {
						t.Fatalf("%s(%v): Add wrote argument %d", name, k, j)
					}
					buf[j] = clobber
				}
				if err := private.Add(before); err != nil {
					t.Fatalf("%s(%v): %v", name, k, err)
				}
			}
			if got, want := aliased.Result(), private.Result(); !same(got, want) {
				t.Errorf("%s(%v): Result %v after the arguments were overwritten, want %v", name, k, got, want)
			}
			into, intoPrivate := def.New(types), def.New(types)
			if err := into.Merge(aliased); err != nil {
				t.Fatalf("%s(%v): %v", name, k, err)
			}
			if err := intoPrivate.Merge(private); err != nil {
				t.Fatalf("%s(%v): %v", name, k, err)
			}
			if got, want := into.Result(), intoPrivate.Result(); !same(got, want) {
				t.Errorf("%s(%v): merged Result %v, want %v", name, k, got, want)
			}
			checked++
		}
	}
	if checked < len(aggs) {
		t.Fatalf("checked %d aggregate × kind pairs for %d aggregates", checked, len(aggs))
	}
}

// AVG over INTEGER keeps the exact sum: beyond 2^53 the mean does not
// depend on the order of the rows or on how they were split into merged
// partial states, and it is the correctly rounded quotient.
func TestAvgIntegerIsExact(t *testing.T) {
	def, _ := LookupAgg("AVG")
	ints := []sqltypes.Type{{Kind: sqltypes.KindInt}}
	if !def.MergesExactly(ints) || def.MergesExactly([]sqltypes.Type{{Kind: sqltypes.KindFloat}}) {
		t.Fatal("AVG must merge exactly over INTEGER only")
	}
	mean := func(vals ...int64) float64 {
		st := def.New(ints)
		for _, v := range vals {
			if err := st.Add([]sqltypes.Value{sqltypes.NewInt(v)}); err != nil {
				t.Fatal(err)
			}
		}
		return st.Result().F()
	}
	const big = 1 << 53
	// 9007199254740994 / 3 = 3002399751580331.33…, whose nearest double is
	// …331.5; a running float sum loses the 1s when big comes first.
	for _, order := range [][]int64{{big, 1, 1}, {1, 1, big}, {1, big, 1}} {
		if got := mean(order...); got != 3002399751580331.5 {
			t.Errorf("AVG%v = %v, want 3002399751580331.5", order, got)
		}
	}
	// Below 2^53 the result is the float division of the sum, as before.
	if got := mean(1, 2, 4); got != 7.0/3 {
		t.Errorf("AVG(1, 2, 4) = %v, want %v", got, 7.0/3)
	}
	// The sum may leave int64 without the mean doing so.
	if got := mean(math.MaxInt64, math.MaxInt64, math.MaxInt64); got != float64(math.MaxInt64) {
		t.Errorf("AVG of three MaxInt64 = %v", got)
	}
	a, b := def.New(ints), def.New(ints)
	for _, v := range []int64{big, 1} {
		_ = a.Add([]sqltypes.Value{sqltypes.NewInt(v)})
	}
	_ = b.Add([]sqltypes.Value{sqltypes.NewInt(1)})
	if err := a.Merge(b); err != nil || a.Result().F() != 3002399751580331.5 {
		t.Errorf("merged AVG = %v, err %v", a.Result(), err)
	}
}
