package fn

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func typ(k sqltypes.Kind) sqltypes.Type { return sqltypes.Type{Kind: k} }

// aggCase describes one registered aggregate plus representative
// argument types for building states.
type aggCase struct {
	name     string
	argTypes []sqltypes.Type
}

// codecCases covers every registered aggregate at least once; SUM and
// AVG twice to hit both the exact integer and the order-sensitive float
// paths.
func codecCases() []aggCase {
	return []aggCase{
		{"COUNT", nil},
		{"SUM", []sqltypes.Type{typ(sqltypes.KindInt)}},
		{"SUM", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"AVG", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"AVG", []sqltypes.Type{typ(sqltypes.KindInt)}},
		{"MIN", []sqltypes.Type{typ(sqltypes.KindInt)}},
		{"MAX", []sqltypes.Type{typ(sqltypes.KindString)}},
		{"VAR_POP", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"VAR_SAMP", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"VARIANCE", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"STDDEV_POP", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"STDDEV_SAMP", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"STDDEV", []sqltypes.Type{typ(sqltypes.KindFloat)}},
		{"ANY_VALUE", []sqltypes.Type{typ(sqltypes.KindDate)}},
		{"ARG_MAX", []sqltypes.Type{typ(sqltypes.KindString), typ(sqltypes.KindInt)}},
		{"ARG_MIN", []sqltypes.Type{typ(sqltypes.KindInt), typ(sqltypes.KindFloat)}},
	}
}

// sampleArg produces the i-th sample value of a kind; nullEvery > 0
// makes every nullEvery-th value NULL (NULL-heavy partitions).
func sampleArg(k sqltypes.Kind, i, nullEvery int) sqltypes.Value {
	if nullEvery > 0 && i%nullEvery == 0 {
		return sqltypes.Null(k)
	}
	switch k {
	case sqltypes.KindBool:
		return sqltypes.NewBool(i%2 == 0)
	case sqltypes.KindInt:
		return sqltypes.NewInt(int64(i*7 - 3))
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(float64(i)*1.25 - 2.5)
	case sqltypes.KindDate:
		return sqltypes.NewDate(2024, time.January, 1+i%28)
	default:
		return sqltypes.NewString(string(rune('a'+i%26)) + "-val")
	}
}

// buildRows materializes n argument tuples for an aggregate.
func buildRows(argTypes []sqltypes.Type, n, nullEvery int) [][]sqltypes.Value {
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		args := make([]sqltypes.Value, len(argTypes))
		for j, t := range argTypes {
			args[j] = sampleArg(t.Kind, i+j, nullEvery)
		}
		rows[i] = args
	}
	return rows
}

// skipRow mirrors exec's accumulate loop (SkipNulls on the first
// argument) and additionally skips NULL comparison keys for the
// two-argument extremum aggregates, where a NULL key is a runtime
// error rather than a partial state.
func skipRow(def *Agg, args []sqltypes.Value) bool {
	if def.SkipNulls && len(args) > 0 && args[0].Null {
		return true
	}
	return def.MinArgs >= 2 && len(args) > 1 && args[1].Null
}

// addRows feeds rows into a state the way exec's accumulate loop does.
func addRows(t *testing.T, def *Agg, st AggState, rows [][]sqltypes.Value) {
	t.Helper()
	for _, args := range rows {
		if skipRow(def, args) {
			continue
		}
		if err := st.Add(args); err != nil {
			t.Fatalf("%s.Add: %v", def.Name, err)
		}
	}
}

// TestStateCodecRoundTrip: for every registered aggregate × partition
// shape (empty, single-row, NULL-heavy, mixed), encode→decode→Merge of
// two partials must match a single-pass accumulation exactly when the
// aggregate declares ExactMerge, and within float tolerance otherwise.
func TestStateCodecRoundTrip(t *testing.T) {
	shapes := []struct {
		name          string
		nLeft, nRight int
		nullEvery     int
	}{
		{"empty_both", 0, 0, 0},
		{"empty_left", 0, 5, 0},
		{"single_row", 1, 0, 0},
		{"all_null", 6, 6, 1},
		{"null_heavy", 8, 8, 2},
		{"mixed", 9, 13, 3},
	}
	for _, tc := range codecCases() {
		def, ok := LookupAgg(tc.name)
		if !ok {
			t.Fatalf("aggregate %s not registered", tc.name)
		}
		for _, sh := range shapes {
			name := tc.name + "/" + sh.name
			if len(tc.argTypes) > 0 {
				name += "/" + tc.argTypes[0].Kind.String()
			}
			t.Run(name, func(t *testing.T) {
				left := buildRows(tc.argTypes, sh.nLeft, sh.nullEvery)
				right := buildRows(tc.argTypes, sh.nRight, sh.nullEvery)

				ls, rs := def.New(tc.argTypes), def.New(tc.argTypes)
				addRows(t, def, ls, left)
				addRows(t, def, rs, right)

				// Encode both partials, decode them, merge the decoded
				// copies — exactly what coordinator-side gather does.
				lb, err := EncodeState(ls)
				if err != nil {
					t.Fatalf("encode left: %v", err)
				}
				rb, err := EncodeState(rs)
				if err != nil {
					t.Fatalf("encode right: %v", err)
				}
				ld, n, err := DecodeState(lb)
				if err != nil {
					t.Fatalf("decode left: %v", err)
				}
				if n != len(lb) {
					t.Fatalf("decode left consumed %d of %d bytes", n, len(lb))
				}
				rd, n, err := DecodeState(rb)
				if err != nil {
					t.Fatalf("decode right: %v", err)
				}
				if n != len(rb) {
					t.Fatalf("decode right consumed %d of %d bytes", n, len(rb))
				}
				if err := ld.Merge(rd); err != nil {
					t.Fatalf("merge: %v", err)
				}
				got := ld.Result()

				single := def.New(tc.argTypes)
				addRows(t, def, single, append(append([][]sqltypes.Value{}, left...), right...))
				want := single.Result()

				if def.MergesExactly(tc.argTypes) {
					// The value codec is canonical, so byte equality is
					// exact value equality (and handles NULLs and the
					// untyped zero Value from empty ANY_VALUE).
					if !bytes.Equal(AppendValue(nil, got), AppendValue(nil, want)) {
						t.Fatalf("exact merge mismatch: got %v want %v", got, want)
					}
					return
				}
				// Order-sensitive accumulators (float SUM/AVG/VAR*): same
				// nullability and numeric agreement within tolerance.
				if got.Null != want.Null || got.K != want.K {
					t.Fatalf("merge shape mismatch: got %v want %v", got, want)
				}
				if !got.Null {
					g, w := got.AsFloat(), want.AsFloat()
					if diff := math.Abs(g - w); diff > 1e-9*(1+math.Abs(w)) {
						t.Fatalf("merge value mismatch: got %v want %v (diff %g)", g, w, diff)
					}
				}
			})
		}
	}
}

// TestStateCodecMergeAcrossShards splits one logical partition into
// four shard-local partials, round-trips each through the codec, and
// checks the merged result against single-pass for every exact-merge
// aggregate — the exact coordinator combine path.
func TestStateCodecMergeAcrossShards(t *testing.T) {
	for _, tc := range codecCases() {
		def, _ := LookupAgg(tc.name)
		if !def.MergesExactly(tc.argTypes) {
			continue
		}
		rows := buildRows(tc.argTypes, 40, 4)
		merged := def.New(tc.argTypes)
		for shard := 0; shard < 4; shard++ {
			st := def.New(tc.argTypes)
			for i, args := range rows {
				if i%4 != shard || skipRow(def, args) {
					continue
				}
				if err := st.Add(args); err != nil {
					t.Fatalf("%s.Add: %v", tc.name, err)
				}
			}
			buf, err := EncodeState(st)
			if err != nil {
				t.Fatalf("%s encode: %v", tc.name, err)
			}
			dec, _, err := DecodeState(buf)
			if err != nil {
				t.Fatalf("%s decode: %v", tc.name, err)
			}
			if err := merged.Merge(dec); err != nil {
				t.Fatalf("%s merge: %v", tc.name, err)
			}
		}
		single := def.New(tc.argTypes)
		addRows(t, def, single, rows)
		got, want := merged.Result(), single.Result()
		if !bytes.Equal(AppendValue(nil, got), AppendValue(nil, want)) {
			t.Errorf("%s: 4-shard merge %v != single-pass %v", tc.name, got, want)
		}
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.Null(sqltypes.KindUnknown),
		sqltypes.Null(sqltypes.KindInt),
		sqltypes.Null(sqltypes.KindString),
		sqltypes.NewBool(true),
		sqltypes.NewBool(false),
		sqltypes.NewInt(0),
		sqltypes.NewInt(-1),
		sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewInt(math.MinInt64),
		sqltypes.NewFloat(0),
		sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(math.Inf(1)),
		sqltypes.NewFloat(math.SmallestNonzeroFloat64),
		sqltypes.NewFloat(3.141592653589793),
		sqltypes.NewString(""),
		sqltypes.NewString("plain"),
		sqltypes.NewString("utf8 — œ∑´®†"),
		sqltypes.NewString(string([]byte{0, 1, 2, 0xff})),
		sqltypes.NewDate(1969, time.December, 31),
		sqltypes.NewDate(2026, time.August, 8),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %v consumed %d of %d", v, n, len(buf))
		}
		if got.K != v.K || got.Null != v.Null {
			t.Fatalf("round trip %v: got %v", v, got)
		}
		if !v.Null && !sqltypes.NotDistinct(got, v) {
			t.Fatalf("round trip %v: got %v", v, got)
		}
	}
	// NaN is not equal to itself; check bit pattern explicitly.
	nan := sqltypes.NewFloat(math.NaN())
	got, _, err := DecodeValue(AppendValue(nil, nan))
	if err != nil {
		t.Fatalf("decode NaN: %v", err)
	}
	if math.Float64bits(got.F()) != math.Float64bits(nan.F()) {
		t.Fatalf("NaN bits changed: %x != %x", math.Float64bits(got.F()), math.Float64bits(nan.F()))
	}

	// Tuple round trip.
	tup := AppendValues(nil, vals)
	dec, n, err := DecodeValues(tup)
	if err != nil {
		t.Fatalf("decode tuple: %v", err)
	}
	if n != len(tup) || len(dec) != len(vals) {
		t.Fatalf("tuple decode: consumed %d of %d, %d values", n, len(tup), len(dec))
	}
	// Re-encoding the decoded tuple must be byte-identical: the codec is
	// canonical, so coordinators can compare encoded group keys directly.
	if re := AppendValues(nil, dec); !bytes.Equal(re, tup) {
		t.Fatalf("re-encode differs:\n  %x\n  %x", re, tup)
	}
}

func TestStateCodecRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":               {},
		"unknown_tag":         {99},
		"count_truncated":     {tagCount},
		"count_negative":      {tagCount, 0x01}, // varint -1
		"sum_bad_kind":        {tagSum, 77, 0},
		"sum_truncated_float": {tagSum, byte(sqltypes.KindFloat), 1, 0, 1, 2, 3},
		"minmax_bad_bool":     {tagMinMax, 5, 0},
		"minmax_no_value":     {tagMinMax, 0, 1},
		"var_truncated":       {tagVar, 0, 0, 4, 0, 0, 0},
		"any_bad_value_kind":  {tagAnyValue, 1, 42},
		"argmax_half_pair":    {tagArgExtreme, 0, 1, byte(sqltypes.KindInt), 2},
		"avg_exact_truncated": {tagAvgExact, 4, 0, 1, 2, 3},
		"avg_exact_negative":  {tagAvgExact, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"avg_exact_no_hi":     {tagAvgExact, 4},
		"avg_exact_no_rows":   {tagAvgExact, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, buf := range cases {
		if _, _, err := DecodeState(buf); err == nil {
			t.Errorf("%s: DecodeState(%x) succeeded, want error", name, buf)
		}
	}
	// Oversized string length must fail before allocating.
	huge := append([]byte{tagAnyValue, 1, byte(sqltypes.KindString)}, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := DecodeState(huge); err == nil {
		t.Error("oversized string length accepted")
	}
	// Tuple claiming 2^60 values must fail before allocating.
	hugeTup := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}
	if _, _, err := DecodeValues(hugeTup); err == nil {
		t.Error("oversized tuple count accepted")
	}
}

// AVG over DOUBLE keeps its wire form; AVG over INTEGER ships its exact
// two-word sum under a tag of its own, and a state decoded from it merges
// only with its own kind.
func TestAvgStateBytes(t *testing.T) {
	def, _ := LookupAgg("AVG")
	fl := def.New([]sqltypes.Type{typ(sqltypes.KindFloat)})
	for _, f := range []float64{1.5, 2} {
		if err := fl.Add([]sqltypes.Value{sqltypes.NewFloat(f)}); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := EncodeState(fl)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{tagAvg, 4, 0, 0, 0, 0, 0, 0, 0x0c, 0x40} // count 2, sum 3.5
	if !bytes.Equal(buf, want) {
		t.Fatalf("float AVG state encodes as %x, want %x", buf, want)
	}
	in := def.New([]sqltypes.Type{typ(sqltypes.KindInt)})
	for _, v := range []int64{math.MinInt64, math.MinInt64, 5} {
		if err := in.Add([]sqltypes.Value{sqltypes.NewInt(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if buf, err = EncodeState(in); err != nil || buf[0] != tagAvgExact {
		t.Fatalf("integer AVG state encodes as %x, err %v", buf, err)
	}
	dec, n, err := DecodeState(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %d of %d bytes, err %v", n, len(buf), err)
	}
	if got, want := dec.Result(), in.Result(); got.F() != want.F() || want.F() != (2*math.MinInt64+5)/3.0 {
		t.Fatalf("decoded mean %v, encoded %v", got, want)
	}
	if err := dec.Merge(fl); err == nil {
		t.Fatal("an exact AVG state merged a float one")
	}
}

// FuzzDecodeState: arbitrary bytes must never panic the state decoder,
// and anything it accepts must re-encode and merge with itself.
func FuzzDecodeState(f *testing.F) {
	for _, tc := range codecCases() {
		def, _ := LookupAgg(tc.name)
		st := def.New(tc.argTypes)
		for _, args := range buildRows(tc.argTypes, 5, 2) {
			if skipRow(def, args) {
				continue
			}
			_ = st.Add(args)
		}
		if buf, err := EncodeState(st); err == nil {
			f.Add(buf)
		}
	}
	f.Add([]byte{tagVar, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, n, err := DecodeState(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf, err := EncodeState(st)
		if err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		st2, _, err := DecodeState(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Merging with a same-tag sibling must not panic. It may return an
		// error (e.g. ARG_MAX states holding NULL keys reject comparison),
		// which the coordinator surfaces as a structured query error.
		_ = st.Merge(st2)
		_ = st.Result()
	})
}

// FuzzDecodeValues: arbitrary bytes must never panic the tuple decoder.
func FuzzDecodeValues(f *testing.F) {
	f.Add(AppendValues(nil, []sqltypes.Value{
		sqltypes.NewInt(7), sqltypes.Null(sqltypes.KindString), sqltypes.NewFloat(1.5),
	}))
	f.Add([]byte{3, byte(sqltypes.KindString), 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, n, err := DecodeValues(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Canonical: re-encode must decode to pairwise not-distinct values.
		re := AppendValues(nil, vals)
		vals2, _, err := DecodeValues(re)
		if err != nil || len(vals2) != len(vals) {
			t.Fatalf("re-decode: %v (%d vs %d values)", err, len(vals2), len(vals))
		}
	})
}
