package wire

// The hand-written reply codec against its oracle, encoding/json: every
// encoder byte for byte against json.NewEncoder(w).Encode of the reply
// object it replaced, the decoder against json.Decoder.Decode into the
// same Reply, plus the allocation guards the codec exists for.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// oracleReply is a /query reply as the server built it through
// encoding/json: the QueryResponse carrying EncodeRows of the rows.
func oracleReply(r *Result) []byte {
	resp := oracleResponse(r)
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(resp)
	return b.Bytes()
}

func oracleResponse(r *Result) *QueryResponse {
	if r.Rows == nil && len(r.Columns) == 0 {
		return &QueryResponse{Message: r.Message}
	}
	resp := &QueryResponse{Columns: r.Columns, Rows: EncodeRows(r.Rows), Types: make([]string, len(r.Types))}
	for i, t := range r.Types {
		resp.Types[i] = t.String()
	}
	return resp
}

// oracleStream is a /query.ndjson body as encoding/json framed it.
func oracleStream(r *Result) []byte {
	resp := oracleResponse(r)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.Encode(Header{Columns: resp.Columns, Types: resp.Types})
	for _, row := range resp.Rows {
		enc.Encode(RowLine{Row: row})
	}
	enc.Encode(Trailer{Done: true, Rows: len(resp.Rows)})
	return b.Bytes()
}

// oraclePartial is a /partial reply as encoding/json framed it: the
// frame built on its own, base64-encoded by encoding/json.
func oraclePartial(version int64, groups []exec.PartialGroup) ([]byte, error) {
	frame := binary.AppendUvarint(nil, uint64(len(groups)))
	for _, g := range groups {
		frame = sqltypes.AppendValues(frame, g.Key)
		for _, st := range g.States {
			var err error
			if frame, err = fn.AppendState(frame, st); err != nil {
				return nil, err
			}
		}
	}
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(ReadResponse{Version: version, Frame: frame})
	return b.Bytes(), nil
}

// Strings from every escape class: HTML characters, quotes and
// backslashes, every control character, U+2028/9, invalid UTF-8
// (lone bytes, truncated and overlong sequences, encoded surrogates),
// and valid multi-byte text.
var stringPieces = []string{
	"", "plain", "<", ">", "&", `"`, `\`, "/", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\xff", "\xfe\xfd", "\xe2\x82", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80",
	"é", "☃", "𝄞", "\ufffd", "日本語", " ", "'",
}

// specialFloats are encoding/json's format boundaries and extremes.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99999e-7, 1e20, 1e21, 999999999999999900000, 1.5e300,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1.0 / 3, 2e-308, 1e-100,
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(5); n > 0; n-- {
		if r.Intn(4) == 0 {
			b.WriteByte(byte(r.Intn(256)))
		} else {
			b.WriteString(stringPieces[r.Intn(len(stringPieces))])
		}
	}
	return b.String()
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return specialFloats[r.Intn(len(specialFloats))]
	case 1:
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(60)-30))
	default:
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	}
}

var kinds = []sqltypes.Kind{sqltypes.KindUnknown, sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate}

func randValue(r *rand.Rand, k sqltypes.Kind) sqltypes.Value {
	if r.Intn(6) == 0 {
		return sqltypes.Null(k)
	}
	switch k {
	case sqltypes.KindBool:
		return sqltypes.NewBool(r.Intn(2) == 0)
	case sqltypes.KindInt:
		ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}
		if r.Intn(2) == 0 {
			return sqltypes.NewInt(ints[r.Intn(len(ints))])
		}
		return sqltypes.NewInt(r.Int63() >> r.Intn(63) * int64(1-2*r.Intn(2)))
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(randFloat(r))
	case sqltypes.KindDate:
		return sqltypes.NewDate(1+r.Intn(9999), time.Month(1+r.Intn(12)), 1+r.Intn(28))
	default:
		return sqltypes.Value{K: k, S: randString(r)}
	}
}

// randResult is a random reply: a message, or a result set of 0–6
// columns and 0–8 rows (nil or empty), with every kind and NULLs.
func randResult(r *rand.Rand) *Result {
	if r.Intn(8) == 0 {
		return &Result{Message: randString(r)}
	}
	res := &Result{}
	ncols := r.Intn(7)
	if ncols > 0 || r.Intn(2) == 0 {
		res.Columns = make([]string, ncols)
	}
	res.Types = make([]sqltypes.Type, ncols)
	for j := range res.Columns {
		res.Columns[j] = randString(r)
		res.Types[j] = sqltypes.Type{Kind: kinds[r.Intn(len(kinds))], Measure: r.Intn(5) == 0}
	}
	if nrows := r.Intn(9); nrows > 0 || r.Intn(2) == 0 {
		res.Rows = make([][]sqltypes.Value, nrows)
	}
	for i := range res.Rows {
		res.Rows[i] = make([]sqltypes.Value, ncols)
		for j := range res.Rows[i] {
			res.Rows[i][j] = randValue(r, res.Types[j].Kind)
		}
	}
	if r.Intn(4) == 0 {
		res.Message = randString(r) // a result set's message never reaches the wire
	}
	return res
}

func TestReplyEncodingMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		res := randResult(r)
		got, err := res.AppendReply(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleReply(res); !bytes.Equal(got, want) {
			t.Fatalf("reply %d:\ngot  %q\nwant %q", i, got, want)
		}
		got, err = res.AppendStream(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleStream(res); !bytes.Equal(got, want) {
			t.Fatalf("stream %d:\ngot  %q\nwant %q", i, got, want)
		}
	}
	// A prefix in dst stays as it was.
	res := &Result{Columns: []string{"a"}, Types: []sqltypes.Type{{Kind: sqltypes.KindInt}}, Rows: [][]sqltypes.Value{{sqltypes.NewInt(1)}}}
	got, _ := res.AppendReply([]byte("prefix"))
	if want := "prefix" + string(oracleReply(res)); string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestPartialEncodingMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	aggs := []struct {
		name string
		args []sqltypes.Kind
	}{
		{"COUNT", nil}, {"SUM", []sqltypes.Kind{sqltypes.KindInt}}, {"SUM", []sqltypes.Kind{sqltypes.KindFloat}},
		{"AVG", []sqltypes.Kind{sqltypes.KindInt}}, {"MIN", []sqltypes.Kind{sqltypes.KindString}},
		{"MAX", []sqltypes.Kind{sqltypes.KindDate}}, {"VARIANCE", []sqltypes.Kind{sqltypes.KindFloat}},
		{"ARG_MAX", []sqltypes.Kind{sqltypes.KindString, sqltypes.KindInt}},
	}
	for i := 0; i < 2000; i++ {
		groups := make([]exec.PartialGroup, r.Intn(5))
		for g := range groups {
			key := make([]sqltypes.Value, r.Intn(3))
			for k := range key {
				key[k] = randValue(r, kinds[r.Intn(len(kinds))])
			}
			groups[g].Key = key
			for n := r.Intn(4); n > 0; n-- {
				a := aggs[r.Intn(len(aggs))]
				def, _ := fn.LookupAgg(a.name)
				types := make([]sqltypes.Type, len(a.args))
				for j, k := range a.args {
					types[j] = sqltypes.Type{Kind: k}
				}
				st := def.New(types)
				for rows := r.Intn(4); rows > 0; rows-- {
					args := make([]sqltypes.Value, len(a.args))
					for j, k := range a.args {
						args[j] = randValue(r, k)
					}
					if len(args) > 0 && args[0].Null {
						continue
					}
					if len(args) > 1 && args[1].Null {
						continue
					}
					st.Add(args)
				}
				groups[g].States = append(groups[g].States, st)
			}
		}
		version := r.Int63n(1000)
		got, err := AppendPartial(nil, version, groups)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oraclePartial(version, groups)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("partial %d:\ngot  %q\nwant %q", i, got, want)
		}
	}
}

// A /rows reply is what encoding/json frames for the rows' frame, and
// the frame reads back to the very values: kinds, 64-bit integers and
// non-finite DOUBLEs included, which JSON cannot carry.
func TestRowsFrameRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		rows := make([][]sqltypes.Value, r.Intn(5))
		for j := range rows {
			rows[j] = make([]sqltypes.Value, r.Intn(4))
			for k := range rows[j] {
				rows[j][k] = randValue(r, kinds[1+r.Intn(len(kinds)-1)])
			}
		}
		rows = append(rows, []sqltypes.Value{sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)),
			sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64)})
		version := r.Int63n(1000)
		got, err := AppendRows(nil, version, rows)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		json.NewEncoder(&b).Encode(ReadResponse{Version: version, Frame: AppendRowsFrame(nil, rows)})
		if !bytes.Equal(got, b.Bytes()) {
			t.Fatalf("rows %d:\ngot  %q\nwant %q", i, got, b.Bytes())
		}
		var rep ReadResponse
		if err := json.Unmarshal(got, &rep); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRowsFrame(rep.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(back, rows, slices.Equal[[]sqltypes.Value]) {
			t.Fatalf("rows %d read back as %#v, want %#v", i, back, rows)
		}
	}
	for _, bad := range [][]byte{nil, {5}, {1, 9}, append(AppendRowsFrame(nil, nil), 0)} {
		if _, err := DecodeRowsFrame(bad); err == nil {
			t.Errorf("frame %v decoded", bad)
		}
	}
}

// A non-finite DOUBLE has no JSON literal: the reply fails naming the
// column instead of writing something a client cannot read.
func TestNonFiniteDoubleFailsTheReply(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		res := &Result{
			Columns: []string{"ok", "x"},
			Types:   []sqltypes.Type{{Kind: sqltypes.KindInt}, {Kind: sqltypes.KindFloat}},
			Rows:    [][]sqltypes.Value{{sqltypes.NewInt(1), sqltypes.NewFloat(1)}, {sqltypes.NewInt(2), sqltypes.NewFloat(f)}},
		}
		for name, encode := range map[string]func([]byte) ([]byte, error){"reply": res.AppendReply, "stream": res.AppendStream} {
			_, err := encode(nil)
			if err == nil || !strings.Contains(err.Error(), `column "x"`) {
				t.Fatalf("%s of %v: err %v, want one naming column x", name, f, err)
			}
		}
	}
}

// oracleDecode is the client's decode before the hand-written decoder:
// json.Decoder.Decode into a Reply.
func oracleDecode(data []byte) (*Reply, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	rep := &Reply{}
	return rep, dec.Decode(rep)
}

// oracleStreamDecode is the client's NDJSON decode before the
// hand-written decoder.
func oracleStreamDecode(data []byte, fn func([]any) error) (*Reply, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	rep := &Reply{}
	var hdr Header
	if err := dec.Decode(&hdr); err != nil {
		return rep, fmt.Errorf("stream header: %w", err)
	}
	rep.Columns, rep.Types = hdr.Columns, hdr.Types
	for {
		var line struct {
			Row  []any `json:"row"`
			Done bool  `json:"done"`
		}
		if err := dec.Decode(&line); err != nil {
			return rep, err
		}
		if line.Done {
			return rep, nil
		}
		rep.Rows = append(rep.Rows, line.Row)
		if err := fn(line.Row); err != nil {
			return rep, err
		}
	}
}

// sameOutcome compares a decode with its oracle: both fail or neither,
// a failure is a truncation (EOF / unexpected EOF) in both or in
// neither — the client retries on it — and success stores equal values.
func sameOutcome(t *testing.T, what string, data []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s of %q: err %v, encoding/json says %v", what, data, gotErr, wantErr)
	}
	for _, eof := range []error{io.EOF, io.ErrUnexpectedEOF} {
		if errors.Is(gotErr, eof) != errors.Is(wantErr, eof) {
			t.Fatalf("%s of %q: err %v, encoding/json says %v", what, data, gotErr, wantErr)
		}
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s of %q:\ngot  %#v\nwant %#v", what, data, got, want)
	}
}

// checkDecode holds DecodeReply and DecodeStream to encoding/json on
// data.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got := &Reply{}
	gotErr := DecodeReply(data, got)
	want, wantErr := oracleDecode(data)
	sameOutcome(t, "DecodeReply", data, got, want, gotErr, wantErr)

	var gotRows, wantRows [][]any
	got = &Reply{}
	gotErr = DecodeStream(data, got, func(row []any) error {
		gotRows = append(gotRows, row)
		return nil
	})
	want, wantErr = oracleStreamDecode(data, func(row []any) error {
		wantRows = append(wantRows, row)
		return nil
	})
	sameOutcome(t, "DecodeStream", data, got, want, gotErr, wantErr)
	if gotErr == nil && !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("DecodeStream of %q handed out rows %#v, want %#v", data, gotRows, wantRows)
	}
}

// decodeCases are the decoder's corner cases; the fuzz target starts
// from them too.
var decodeCases = []string{
	``, ` `, "\n\t\r ", `{}`, `{} `, `{}x`, `null`, `null `, `nullx`, `nul`, `null{}`, `[]`, `[1]`, `1`, `1 `, `1x`, `"s"`, `"s"x`, `true`, `-`, `1.`, `1e`, `01`, `-0`,
	`{"columns":["a","b"],"types":["INTEGER","VARCHAR"],"rows":[[1,"x"],[null,""],[-0,"\u00e9"]]}`,
	`{"message":"created view v"}`,
	`{"error":{"code":"PARSE","phase":"parse","offset":7,"hint":"h","message":"m","request_id":"r"}}`,
	`{"version":3,"groups":[{"key":"AQQ=","states":["AQI=","AgM="]},{"key":"","states":[]}]}`,
	`{"num_params":2}`, `{"num_params":2.5}`, `{"num_params":1e2}`, `{"version":9223372036854775808}`, `{"version":-0}`,
	`{"rows":[[1e400]]}`, `{"rows":[[1e-400]]}`, `{"rows":[[123456789012345678901234567890]]}`,
	`{"rows":[[1,2],[3]],"rows":[[4]]}`, `{"rows":[[1]],"rows":null}`, `{"rows":[[1]],"rows":[null]}`, `{"rows":[]}`, `{"rows":[[]]}`,
	`{"rows":[[[1,[2,{}]],{"a":1,"a":"b","c":{"d":[]}}]]}`, `{"rows":[1]}`, `{"rows":{}}`, `{"rows":[["a" "b"]]}`, `{"rows":[[1,]]}`,
	`{"columns":["a","b"],"columns":[null]}`, `{"columns":["a","b"],"columns":["c"],"columns":[null,null]}`, `{"columns":[]}`, `{"columns":null}`, `{"columns":[1]}`,
	`{"error":{"code":"A","hint":"h"},"error":{"code":"B"}}`, `{"error":{"code":"A"},"error":null}`, `{"error":[]}`, `{"error":{"offset":"x"}}`,
	`{"groups":[{"key":"a","states":["x","y"]}],"groups":[{"states":[null]},null]}`, `{"groups":[null]}`, `{"groups":[1]}`,
	`{"message":"a","message":null}`, `{"message":1}`, `{"version":null,"num_params":null}`,
	`{"COLUMNS":["a"],"Rows":[[1]],"mEsSaGe":"m","NUM_PARAMS":1}`, `{"column\u017f":["long s folds to s"]}`, `{"\u212aey":1}`, `{"rows\u0000":[[1]]}`,
	`{"unknown":{"deep":[1,2,{"x":null}]},"message":"kept"}`, `{"unknown":1e400}`, `{"unknown":"\ud800"}`,
	`{"message":"\ud83d\ude00 \ud800 \udc00 \ud800\u0041 \ud800\ud800\udc00 \u00e9 \/ \b\f\n\r\t \\ \""}`,
	"{\"message\":\"raw \xff\xfe bytes \xed\xa0\x80 and \xe2\x82\"}", "{\"message\":\"ctl \x01\"}", `{"message":"\x"}`, `{"message":"\u12"}`, `{"message":"\u12G4"}`,
	`{"message":"unterminated`, `{"message":`, `{"message"`, `{"message":"a",`, `{"message":"a"`, `{"a" 1}`, `{1:2}`, `{"a":1,}`,
	"{\"columns\":[\"a\"],\"types\":[\"INTEGER\"]}\n{\"row\":[1]}\n{\"row\":[2.5]}\n{\"done\":true,\"rows\":2}\n",
	"{\"columns\":null,\"types\":null}\n{\"done\":true,\"rows\":0}\n",
	"{\"columns\":[\"a\"]}{\"row\":[1]}{\"done\":true}",
	"{\"columns\":[\"a\"]}\n{\"row\":[1],\"done\":true}\n",
	"{\"columns\":[\"a\"]}\n{}\n{\"row\":null}\n{\"done\":false}\n{\"done\":null,\"row\":[[1]]}\n{\"done\":true}\ntrailing garbage",
	"{\"columns\":[\"a\"]}\nnull\n{\"done\":true}\n", "{\"columns\":[\"a\"]}\nnull{\"done\":true}\n", "{\"columns\":[\"a\"]}\n1\n",
	"{\"columns\":[\"a\"]}\n{\"row\":[1]}\n", "{\"columns\":[\"a\"]}\n{\"row\":[1", "{\"columns\":[\"a\"],\"rows\":[[9]]}\n{\"done\":1}\n",
	"{\"Columns\":[\"a\"],\"TYPES\":[\"X\"]}\n{\"ROW\":[1]}\n{\"Done\":true}\n",
	strings.Repeat("[", 10001), `{"rows":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
	`{"rows":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, `{"rows":` + strings.Repeat("[", 9999),
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		checkDecode(t, []byte(c))
		// Every truncation of a case is a case too.
		if len(c) < 400 {
			for n := 0; n < len(c); n++ {
				checkDecode(t, []byte(c[:n]))
			}
		}
	}
	// Everything the encoders write decodes to what encoding/json reads.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		res := randResult(r)
		body, _ := res.AppendReply(nil)
		checkDecode(t, body)
		body, _ = res.AppendStream(nil)
		checkDecode(t, body)
	}
	// reflect.DeepEqual calls -0 and 0 equal; the sign must survive too.
	rep := &Reply{}
	if err := DecodeReply([]byte(`{"rows":[[-0,0,-0.0]]}`), rep); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true} {
		if got := math.Signbit(rep.Rows[0][i].(float64)); got != want {
			t.Errorf("cell %d: sign bit %v, want %v", i, got, want)
		}
	}
}

func FuzzDecodeReply(f *testing.F) {
	for _, c := range decodeCases {
		if len(c) < 1000 {
			f.Add([]byte(c))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// Rows are carved from shared blocks, each capacity-limited: appending
// to one row reallocates it rather than writing into the next.
func TestReplyRowsDoNotShareCapacity(t *testing.T) {
	res := &Result{Columns: []string{"a", "b"}, Types: []sqltypes.Type{{Kind: sqltypes.KindInt}, {Kind: sqltypes.KindString}}}
	for i := 0; i < 100; i++ {
		res.Rows = append(res.Rows, []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint("s", i))})
	}
	reply, _ := res.AppendReply(nil)
	stream, _ := res.AppendStream(nil)
	var streamed [][]any
	for name, decode := range map[string]func(*Reply) error{
		"reply": func(rep *Reply) error { return DecodeReply(reply, rep) },
		"stream": func(rep *Reply) error {
			return DecodeStream(stream, rep, func(r []any) error { streamed = append(streamed, r); return nil })
		},
	} {
		rep := &Reply{}
		if err := decode(rep); err != nil || len(rep.Rows) != 100 {
			t.Fatalf("%s: %d rows, err %v", name, len(rep.Rows), err)
		}
		for i, row := range rep.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has cap %d beyond its %d values", name, i, cap(row), len(row))
			}
		}
		next := append([]any(nil), rep.Rows[1]...)
		_ = append(rep.Rows[0], "clobber")
		if !reflect.DeepEqual(rep.Rows[1], next) {
			t.Fatalf("%s: appending to row 0 changed row 1 to %v", name, rep.Rows[1])
		}
	}
	if len(streamed) != 100 || !reflect.DeepEqual(streamed[99], []any{99.0, "s99"}) {
		t.Fatalf("stream handed out %d rows, last %v", len(streamed), streamed[len(streamed)-1])
	}
}

// guardResult is n rows of an INTEGER, a DOUBLE, a VARCHAR, a DATE, a
// BOOLEAN and a NULL.
func guardResult(n int) *Result {
	res := &Result{
		Columns: []string{"i", "f", "s", "d", "b", "z"},
		Types: []sqltypes.Type{{Kind: sqltypes.KindInt}, {Kind: sqltypes.KindFloat}, {Kind: sqltypes.KindString},
			{Kind: sqltypes.KindDate}, {Kind: sqltypes.KindBool}, {Kind: sqltypes.KindInt}},
	}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 8),
			sqltypes.NewString(fmt.Sprintf("name <%d>", i)), sqltypes.NewDate(2024, 1, 1+i%28), sqltypes.NewBool(i%2 == 0), sqltypes.Null(sqltypes.KindInt)})
	}
	return res
}

// Encoding appends into the caller's buffer and allocates nothing once
// the buffer is large enough — the same count at 100 and 1000 rows, and
// for the partial reply too.
func TestReplyEncodeAllocatesNothingPerRow(t *testing.T) {
	for _, n := range []int{100, 1000} {
		res := guardResult(n)
		buf := make([]byte, 0, 1<<20)
		for name, encode := range map[string]func([]byte) ([]byte, error){"reply": res.AppendReply, "stream": res.AppendStream} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := encode(buf[:0]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s of %d rows: %v allocations, want 0", name, n, allocs)
			}
		}
		count, _ := fn.LookupAgg("COUNT")
		groups := make([]exec.PartialGroup, n)
		for i := range groups {
			groups[i] = exec.PartialGroup{Key: res.Rows[i][:3], States: []fn.AggState{count.New(nil)}}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := AppendPartial(buf[:0], 1, groups); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("partial of %d groups: %v allocations, want 0", n, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := AppendRows(buf[:0], 1, res.Rows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("rows reply of %d rows: %v allocations, want 0", n, allocs)
		}
	}
}

// Decoding allocates one object per non-NULL string or number cell —
// the value boxed into its interface — and a constant handful per
// reply (the Reply, its column and type names, the string arena, the
// row block and row slice), the same at 100 rows as at 1000.
func TestReplyDecodeAllocatesPerCellNotPerRow(t *testing.T) {
	const perReply = 24
	fixed := map[string]float64{}
	for _, n := range []int{100, 1000} {
		res := guardResult(n)
		reply, _ := res.AppendReply(nil)
		stream, _ := res.AppendStream(nil)
		cells := float64(4 * n) // i, f, s, d; b and z box without allocating
		for name, decode := range map[string]func(){
			"reply":  func() { mustDecode(t, DecodeReply(reply, &Reply{})) },
			"stream": func() { mustDecode(t, DecodeStream(stream, &Reply{}, func([]any) error { return nil })) },
		} {
			extra := testing.AllocsPerRun(20, decode) - cells
			if extra > perReply {
				t.Errorf("%s of %d rows: %v allocations beyond one per cell, want at most %d", name, n, extra, perReply)
			}
			if small, ok := fixed[name]; ok && extra > small {
				t.Errorf("%s: %v allocations beyond one per cell at %d rows, %v at 100", name, extra, n, small)
			}
			fixed[name] = extra
		}
	}
}

func mustDecode(t *testing.T, err error) {
	if err != nil {
		t.Fatal(err)
	}
}
