package server_test

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// TestIntegerParamsCrossExactly: an INTEGER parameter reaches the engine
// as the int64 the client sent, on /execute and on /partial, including
// values a float64 cannot hold. /execute answers in JSON, where a
// number is a float64 to the client, so it answers the value's text.
func TestIntegerParamsCrossExactly(t *testing.T) {
	ctx := context.Background()
	db := msql.Open()
	db.MustExec(`CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (0)`)
	_, ts := startServer(t, db, server.Config{})
	c := client.New(ts.URL)
	stmt, err := c.Prepare(ctx, "q", `SELECT CAST($1 AS VARCHAR) AS x`)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{1<<53 + 1, -(1<<53 + 1), 1<<53 + 3, math.MaxInt64, math.MinInt64} {
		p, err := client.ParamOf(v)
		if err != nil {
			t.Fatal(err)
		}
		res, err := stmt.ExecParams(ctx, []client.Param{p})
		if err != nil {
			t.Fatalf("/execute %d: %v", v, err)
		}
		if got := res.Rows[0][0]; got != strconv.FormatInt(v, 10) {
			t.Fatalf("/execute %d answered %v", v, got)
		}

		part, err := c.Read(ctx, "/partial", wire.ReadRequest{SQL: `SELECT MAX(x + $1) FROM t`, Params: []client.Param{p}, Aggs: 1})
		if err != nil {
			t.Fatalf("/partial %d: %v", v, err)
		}
		// The frame: one group, its empty key, the MAX state.
		r := sqltypes.NewReader(part.Frame)
		n, err := r.Uvarint()
		if err != nil || n != 1 {
			t.Fatalf("/partial %d: %d groups (%v), want 1", v, n, err)
		}
		if _, err := r.Values(nil); err != nil {
			t.Fatal(err)
		}
		st, err := fn.ReadState(&r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := st.Result(); r.Null || r.I != v {
			t.Fatalf("/partial %d answered %v", v, r)
		}
	}
}

// TestParamDecodeKeepsNumbers: a parameter decoded by the server's
// request decoder keeps its number's text, INTEGER accepts any int64
// and integral numbers up to 2^53 in other forms, and rejects the rest.
func TestParamDecodeKeepsNumbers(t *testing.T) {
	for _, tc := range []struct {
		body string
		want string // "" = rejected
	}{
		{`{"type":"INTEGER","value":9223372036854775807}`, "9223372036854775807"},
		{`{"type":"INTEGER","value":-9223372036854775808}`, "-9223372036854775808"},
		{`{"type":"INTEGER","value":9007199254740993}`, "9007199254740993"},
		{`{"type":"INTEGER","value":3.0}`, "3"},
		{`{"type":"INTEGER","value":1e3}`, "1000"},
		{`{"type":"INTEGER","value":3.5}`, ""},
		{`{"type":"INTEGER","value":9223372036854775808}`, ""},
		{`{"type":"INTEGER","value":"7"}`, ""},
		{`{"type":"DOUBLE","value":-0.5}`, "-0.5"},
		{`{"type":"DOUBLE","value":7}`, "7.0"},
		{`{"type":"VARCHAR","value":"a\"b"}`, `a"b`},
		{`{"type":"BOOLEAN","value":true}`, "TRUE"},
		{`{"type":"INTEGER","value":null}`, "NULL"},
	} {
		var p wire.Param
		r := httptest.NewRequest(http.MethodPost, "/execute", strings.NewReader(tc.body))
		if err := server.ReadJSON(r, &p); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		v, err := p.Decode()
		switch {
		case tc.want == "" && err == nil:
			t.Fatalf("%s decoded to %v, want a rejection", tc.body, v)
		case tc.want != "" && err != nil:
			t.Fatalf("%s: %v", tc.body, err)
		case tc.want != "" && v.String() != tc.want:
			t.Fatalf("%s decoded to %s, want %s", tc.body, v, tc.want)
		}
	}
}

// TestReadJSONRejectsTrailingData: a request body is one JSON value, as
// json.Unmarshal would take it; anything but white space after it is
// rejected.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"sql":"SELECT 1"}`, true},
		{" {\"sql\":\"SELECT 1\"} \r\n\t", true},
		{`{"sql":"SELECT 1"} x`, false},
		{`{"sql":"SELECT 1"}}`, false},
		{`{"sql":"SELECT 1"} {"sql":"SELECT 2"}`, false},
		{`{"sql":"SELECT 1"} 7`, false},
		{`{"sql":"SELECT 1"`, false},
		{``, false},
	} {
		var req wire.QueryRequest
		r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body))
		err := server.ReadJSON(r, &req)
		if (err == nil) != tc.ok {
			t.Errorf("%q: error %v, want ok=%v", tc.body, err, tc.ok)
		}
		if tc.ok && req.SQL != "SELECT 1" {
			t.Errorf("%q: decoded SQL %q", tc.body, req.SQL)
		}
	}
}
