package server_test

// The statement replies on the wire: byte for byte, the raw bodies of
// /query, /execute, /query.ndjson and /partial for one result holding
// every value kind and every class of string escape, against files
// captured from the encoding/json encoder the hand-written codec
// replaced; and a result the wire cannot carry, a non-finite DOUBLE, as
// a structured error.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// goldenDB holds one row per escape class and float format boundary.
func goldenDB(t *testing.T) *msql.DB {
	t.Helper()
	db := msql.Open()
	t.Cleanup(func() { db.Close() })
	db.MustExec(`CREATE TABLE golden (k INTEGER, b BOOLEAN, i INTEGER, f DOUBLE, s VARCHAR, d DATE)`)
	str, flt, date := sqltypes.NewString, sqltypes.NewFloat, sqltypes.NewDate
	rows := [][]msql.Value{
		{sqltypes.NewInt(1), sqltypes.NewBool(true), sqltypes.NewInt(0), flt(0), str("plain"), date(2024, 2, 29)},
		{sqltypes.NewInt(2), sqltypes.NewBool(false), sqltypes.NewInt(math.MinInt64), flt(math.Copysign(0, -1)), str("<html> & </html>"), date(1970, 1, 1)},
		{sqltypes.NewInt(3), sqltypes.NewBool(true), sqltypes.NewInt(math.MaxInt64), flt(1e-7), str(`"quoted" \back/slash`), date(9999, 12, 31)},
		{sqltypes.NewInt(4), sqltypes.NewBool(false), sqltypes.NewInt(1 << 53), flt(1e21), str("ctl \x00\x01\b\f\n\r\t\x1f\x7f end"), date(1, 1, 1)},
		{sqltypes.NewInt(5), sqltypes.NewBool(true), sqltypes.NewInt(-1), flt(5e-324), str("sep \u2028 and \u2029"), date(2000, 6, 15)},
		{sqltypes.NewInt(6), sqltypes.NewBool(false), sqltypes.NewInt(42), flt(math.MaxFloat64), str("bad \xff\xfe utf8 \xed\xa0\x80 tail \xe2\x82"), date(1999, 12, 31)},
		{sqltypes.NewInt(7), sqltypes.NewBool(true), sqltypes.NewInt(7), flt(1e20), str("héllo ☃ 𝄞"), date(2024, 1, 1)},
		{sqltypes.NewInt(8), sqltypes.NewBool(false), sqltypes.NewInt(8), flt(1e-6), str(""), date(2024, 1, 2)},
		{sqltypes.NewInt(9), sqltypes.NewBool(true), sqltypes.NewInt(9), flt(-123.456), str("plain"), date(2024, 1, 3)},
		{sqltypes.NewInt(10), sqltypes.Null(sqltypes.KindBool), sqltypes.Null(sqltypes.KindInt), sqltypes.Null(sqltypes.KindFloat), sqltypes.Null(sqltypes.KindString), sqltypes.Null(sqltypes.KindDate)},
	}
	if err := db.InsertRows("golden", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PrepareNamed("golden", `SELECT * FROM golden WHERE k >= $1 ORDER BY k`); err != nil {
		t.Fatal(err)
	}
	return db
}

// goldenQuery aliases a column with a name that needs escaping too.
const goldenQuery = `SELECT k, b, i, f, s, d, s AS "<c&d> ""e"" ` + "\u2028" + `" FROM golden ORDER BY k`

func TestReplyBytesGolden(t *testing.T) {
	db := goldenDB(t)
	_, ts := startServer(t, db, server.Config{})
	cases := []struct {
		file, path, body string
	}{
		{"query.json", "/query", `{"sql": ` + quoteJSON(goldenQuery) + `}`},
		{"execute.json", "/execute", `{"name": "golden", "params": [{"type": "INTEGER", "value": 1}]}`},
		{"query.ndjson", "/query.ndjson", `{"sql": ` + quoteJSON(goldenQuery) + `}`},
		{"message.json", "/query", `{"sql": "CREATE VIEW gv AS SELECT * FROM golden"}`},
		{"empty.json", "/query", `{"sql": "SELECT k, s FROM golden WHERE k < 0"}`},
		{"empty.ndjson", "/query.ndjson", `{"sql": "SELECT k, s FROM golden WHERE k < 0"}`},
		{"partial.json", "/partial", `{"sql": "SELECT s, COUNT(*) AS n, SUM(f) AS sf, MIN(d) AS md, AVG(i) AS ai FROM golden GROUP BY s", "groups": 1, "aggs": 4}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", c.path, resp.StatusCode, got)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s (%s) differs from testdata/golden/%s:\ngot  %q\nwant %q", c.path, c.body, c.file, got, want)
		}
	}
}

// quoteJSON is a JSON string literal; the SQL holds nothing that needs
// more than quote and backslash escaping.
func quoteJSON(s string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(s) + `"`
}

// A non-finite DOUBLE has no JSON literal. The reply is encoded before
// its status is chosen, so such a result is a structured RUNTIME error
// (500) naming the column — counted once in the outcome ledger and once
// in the access log — on every endpoint that carries rows, and the
// client surfaces it without retrying. In-process results keep the
// value.
func TestNonFiniteDoubleIsARuntimeError(t *testing.T) {
	db := msql.Open()
	t.Cleanup(func() { db.Close() })
	if _, err := db.PrepareNamed("inf", `SELECT 1 AS k, $1 * 10.0 AS x`); err != nil {
		t.Fatal(err)
	}
	const infSQL = `SELECT 1 AS k, 1e308 * 10.0 AS x`
	res, err := db.Query(infSQL)
	if err != nil || !math.IsInf(res.Rows[0][1].F(), 1) {
		t.Fatalf("in process: %v, %v", res, err)
	}
	log := &syncBuffer{}
	srv, ts := startServer(t, db, server.Config{AccessLog: log})
	for _, c := range []struct{ path, body string }{
		{"/query", `{"sql": "` + infSQL + `"}`},
		{"/execute", `{"name": "inf", "params": [{"type": "DOUBLE", "value": 1e308}]}`},
		{"/query.ndjson", `{"sql": "` + infSQL + `"}`},
	} {
		id := "inf" + c.path
		runtimeErrors := srv.OutcomeCount(exec.CodeRuntime)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+c.path, strings.NewReader(c.body))
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var reply wire.QueryResponse
		if err := json.Unmarshal(body, &reply); err != nil || resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: HTTP %d, body %q (%v), want a 500 with a structured error", c.path, resp.StatusCode, body, err)
		}
		if reply.Error == nil || reply.Error.Code != "RUNTIME" || !strings.Contains(reply.Error.Message, `column "x"`) || reply.Error.RequestID != id {
			t.Errorf("%s: error %+v, want RUNTIME naming column x for %s", c.path, reply.Error, id)
		}
		if got := srv.OutcomeCount(exec.CodeRuntime) - runtimeErrors; got != 1 {
			t.Errorf("%s: RUNTIME counted %d times, want once", c.path, got)
		}
		var lines []map[string]any
		for _, rec := range accessLines(t, log) {
			if rec["request_id"] == id {
				lines = append(lines, rec)
			}
		}
		if len(lines) != 1 || lines[0]["status"] != float64(http.StatusInternalServerError) || lines[0]["rows"] != float64(0) {
			t.Errorf("%s: access records %v, want one 500 with no rows", c.path, lines)
		}
	}

	// An idempotent read retries transport errors; this is not one.
	c := client.New(ts.URL, client.WithBackoff(client.Backoff{Attempts: 4, Base: time.Millisecond, Max: time.Millisecond, Seed: 1}))
	_, err = c.Query(context.Background(), infSQL, client.WithIdempotent(), client.WithRequestID("inf-client"))
	var me *msql.Error
	if !errors.As(err, &me) || me.Code != exec.CodeRuntime {
		t.Fatalf("client error %v, want the server's RUNTIME error", err)
	}
	n := 0
	for _, rec := range accessLines(t, log) {
		if rec["request_id"] == "inf-client" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("the client sent the statement %d times, want once", n)
	}
}
