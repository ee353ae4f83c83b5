package server_test

// Introspection-surface tests: the request-ID contract (client →
// header echo → access log → engine tracer spans), the /statements and
// /queries endpoints, and /kill over the wire protocol.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// syncBuffer is an io.Writer safe to read from the test goroutine while
// handlers write to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// accessLines parses the structured access log.
func accessLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access-log line is not JSON: %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestRequestIDRoundTrip checks the acceptance contract: a request ID
// issued by msql/client appears in the response header, the server's
// structured access-log line, and the query's tracer spans.
func TestRequestIDRoundTrip(t *testing.T) {
	db := testDB(t)
	col := &exec.SpanCollector{}
	db.SetTrace(col)
	log := &syncBuffer{}
	_, ts := startServer(t, db, server.Config{AccessLog: log})
	c := client.New(ts.URL)

	res, err := c.Query(context.Background(), listing3, client.WithRequestID("test-req-42"))
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "test-req-42" {
		t.Errorf("Result.RequestID = %q", res.RequestID)
	}

	// The access log carries the ID.
	var logged *map[string]any
	for _, rec := range accessLines(t, log) {
		if rec["request_id"] == "test-req-42" {
			r := rec
			logged = &r
		}
	}
	if logged == nil {
		t.Fatalf("request id missing from access log: %s", log.String())
	}
	if (*logged)["path"] != "/query" || (*logged)["status"] != float64(200) {
		t.Errorf("access record = %v", *logged)
	}
	if (*logged)["rows"] != float64(3) {
		t.Errorf("access record rows = %v, want 3", (*logged)["rows"])
	}

	// The engine's tracer spans are tagged with request and query IDs.
	tagged := 0
	for _, sp := range col.Spans() {
		if sp.Attrs["request_id"] == "test-req-42" {
			tagged++
			if sp.Attrs["query_id"] == "" {
				t.Errorf("tagged span %s/%s has no query_id", sp.Phase, sp.Name)
			}
		}
	}
	if tagged == 0 {
		t.Fatalf("no tracer span tagged with the request id; spans: %+v", col.Spans())
	}

	// Without an explicit ID the client generates one.
	res, err = c.Query(context.Background(), `SELECT 1 AS x`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.RequestID, "req-") {
		t.Errorf("generated RequestID = %q", res.RequestID)
	}
	if !strings.Contains(log.String(), res.RequestID) {
		t.Errorf("generated id %s not in access log", res.RequestID)
	}
}

// TestRequestIDHeader checks header precedence and echo: the
// X-Request-Id header wins over the body field and is echoed back, and
// error payloads carry the ID too.
func TestRequestIDHeader(t *testing.T) {
	db := testDB(t)
	log := &syncBuffer{}
	_, ts := startServer(t, db, server.Config{AccessLog: log})

	body := `{"sql": "SELECT noSuchColumn FROM Orders", "request_id": "body-id"}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "header-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "header-id" {
		t.Errorf("echoed X-Request-Id = %q, want header-id", got)
	}
	raw, _ := io.ReadAll(resp.Body)
	var qr struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if qr.Error.Code != "BIND" || qr.Error.RequestID != "header-id" {
		t.Errorf("error payload = %+v, want BIND with header-id", qr.Error)
	}
	found := false
	for _, rec := range accessLines(t, log) {
		if rec["request_id"] == "header-id" && rec["code"] == "BIND" {
			found = true
		}
	}
	if !found {
		t.Errorf("failed request not in access log with its id: %s", log.String())
	}
}

// TestStatementsEndpoint checks GET /statements exposes the stats store
// with fingerprints and latency percentiles.
func TestStatementsEndpoint(t *testing.T) {
	db := testDB(t)
	_, ts := startServer(t, db, server.Config{})
	c := client.New(ts.URL)
	for i := 0; i < 3; i++ {
		if _, err := c.Query(context.Background(), fmt.Sprintf(`SELECT COUNT(*) FROM big WHERE a > %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/statements")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Statements []struct {
			Fingerprint string `json:"fingerprint"`
			Calls       int64  `json:"calls"`
			Exec        struct {
				Count int64 `json:"count"`
				P99Ns int64 `json:"p99_ns"`
			} `json:"exec"`
		} `json:"statements"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range out.Statements {
		if strings.Contains(st.Fingerprint, "a > $1") {
			found = true
			if st.Calls != 3 || st.Exec.Count != 3 || st.Exec.P99Ns <= 0 {
				t.Errorf("statement entry = %+v", st)
			}
		}
	}
	if !found {
		t.Fatalf("normalized fingerprint missing from /statements: %+v", out.Statements)
	}
	// The same stats answer over the wire as SQL (acceptance query).
	res, err := c.Query(context.Background(),
		`SELECT fingerprint, calls, p99_exec_ms FROM msql_stats.statements ORDER BY p99_exec_ms DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("acceptance query over the wire returned no rows")
	}
}

// TestKillEndpoint kills an in-flight wire query through POST /kill and
// checks the client sees a structured CANCELED error.
func TestKillEndpoint(t *testing.T) {
	db := testDB(t)
	release, _ := holdOperators(t)
	_, ts := startServer(t, db, server.Config{})
	c := client.New(ts.URL)

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), slowQuery)
		done <- err
	}()

	// Find the in-flight query via GET /queries.
	var id int64
	deadline := time.Now().Add(5 * time.Second)
	for id == 0 && time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/queries")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Queries []struct {
				ID     int64  `json:"id"`
				Source string `json:"source"`
				SQL    string `json:"sql"`
			} `json:"queries"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range out.Queries {
			if strings.Contains(q.SQL, "AGGREGATE") {
				if q.Source != "wire" {
					t.Errorf("live query source = %q, want wire", q.Source)
				}
				id = q.ID
			}
		}
		time.Sleep(time.Millisecond)
	}
	if id == 0 {
		t.Fatal("slow query never appeared in /queries")
	}

	killed, err := c.Kill(context.Background(), id)
	if err != nil || !killed {
		t.Fatalf("Kill(%d) = %v, %v", id, killed, err)
	}
	release()
	if err := <-done; !errors.Is(err, msql.ErrCanceled) {
		t.Fatalf("killed wire query returned %v, want ErrCanceled", err)
	}

	// A raced/unknown kill answers killed=false with a structured error.
	killed, err = c.Kill(context.Background(), 999999)
	if killed || err == nil || !strings.Contains(err.Error(), "no running query") {
		t.Fatalf("Kill(unknown) = %v, %v", killed, err)
	}
}
