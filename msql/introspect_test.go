package msql_test

// Introspection tests (run under -race in CI): the statement-stats
// store and its fingerprint normalization, the msql_stats virtual
// tables over plain SQL, the live-query registry with KILL (SQL and
// API), the slow-query log, the Prometheus exposition format contract
// (full text output parses and stays deterministic), and a concurrent
// hammer over stats updates + KILL.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/msql"
)

// TestStatementStatsFingerprint checks that literal variants of one
// query collapse to a single normalized fingerprint, and that the
// acceptance query over msql_stats.statements works in plain SQL.
func TestStatementStatsFingerprint(t *testing.T) {
	db := open(t)
	db.ResetStatementStats()
	for _, rev := range []int{1, 2, 3} {
		q := fmt.Sprintf(`SELECT COUNT(*) AS c FROM Orders WHERE revenue > %d`, rev)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT fingerprint, calls, p99_exec_ms FROM msql_stats.statements ORDER BY p99_exec_ms DESC`)
	if err != nil {
		t.Fatalf("acceptance query over msql_stats.statements: %v", err)
	}
	if got := strings.Join(res.Columns, ","); got != "fingerprint,calls,p99_exec_ms" {
		t.Fatalf("columns = %s", got)
	}
	found := false
	for _, row := range res.Rows {
		fp := row[0].String()
		if strings.Contains(fp, "revenue > $1") {
			found = true
			if got := row[1].String(); got != "3" {
				t.Errorf("calls for %q = %s, want 3 (literals must share a fingerprint)", fp, got)
			}
			if strings.ContainsAny(fp, "\n\t") {
				t.Errorf("fingerprint not single-line: %q", fp)
			}
		}
		if strings.Contains(fp, "> 1") || strings.Contains(fp, "> 2") {
			t.Errorf("literal leaked into fingerprint: %q", fp)
		}
	}
	if !found {
		t.Fatalf("no normalized fingerprint found in %v", res.Rows)
	}

	// The API snapshot agrees with the virtual table.
	stats := db.StatementStats()
	var entry *msql.StatementStat
	for i := range stats {
		if strings.Contains(stats[i].Fingerprint, "revenue > $1") {
			entry = &stats[i]
		}
	}
	if entry == nil {
		t.Fatal("fingerprint missing from StatementStats()")
	}
	if entry.Calls != 3 || entry.Exec.Count != 3 {
		t.Errorf("calls=%d exec.count=%d, want 3/3", entry.Calls, entry.Exec.Count)
	}
	if entry.Rows != 3 { // one COUNT(*) row per run
		t.Errorf("rows=%d, want 3", entry.Rows)
	}
	if entry.Exec.P99Ns < entry.Exec.P50Ns {
		t.Errorf("p99 %d < p50 %d", entry.Exec.P99Ns, entry.Exec.P50Ns)
	}
}

// TestStatementStatsTextAndPreparedShareAShape: a text statement and the
// prepared statement of its shape — its WHERE literals as parameters —
// are one msql_stats.statements row.
func TestStatementStatsTextAndPreparedShareAShape(t *testing.T) {
	db := open(t)
	db.ResetStatementStats()
	stmt, err := db.Prepare(`SELECT prodName, COUNT(*) AS n FROM Orders WHERE prodName = $1 GROUP BY prodName`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query("Happy"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT prodName, COUNT(*) AS n FROM Orders WHERE prodName = 'Acme' GROUP BY prodName`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT fingerprint, calls FROM msql_stats.statements WHERE fingerprint LIKE '%FROM Orders WHERE prodName%'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want one row for the shape, got %v", res.Rows)
	}
	if fp, calls := res.Rows[0][0].String(), res.Rows[0][1].String(); !strings.Contains(fp, "prodName = $1") || calls != "2" {
		t.Fatalf("row %q with %s calls, want the shape's text with 2", fp, calls)
	}
}

// TestStatementStatsErrors checks per-fingerprint error attribution and
// the enable/disable/reset lifecycle.
func TestStatementStatsErrors(t *testing.T) {
	db := open(t)
	db.ResetStatementStats()
	if _, err := db.Query(`SELECT noSuchColumn FROM Orders`); err == nil {
		t.Fatal("want bind error")
	}
	stats := db.StatementStats()
	if len(stats) != 1 {
		t.Fatalf("want exactly the failing query in the store, got %v", stats)
	}
	boom := stats[0]
	if boom.Calls != 1 || boom.Errors != 1 {
		t.Errorf("calls=%d errors=%d, want 1/1", boom.Calls, boom.Errors)
	}

	db.SetStatementStats(false)
	db.ResetStatementStats()
	if _, err := db.Query(`SELECT COUNT(*) FROM Orders`); err != nil {
		t.Fatal(err)
	}
	if got := db.StatementStats(); len(got) != 0 {
		t.Errorf("stats recorded while disabled: %v", got)
	}
	db.SetStatementStats(true)
	if _, err := db.Query(`SELECT COUNT(*) FROM Orders`); err != nil {
		t.Fatal(err)
	}
	if got := db.StatementStats(); len(got) != 1 {
		t.Errorf("after re-enable want 1 entry, got %d", len(got))
	}
}

// TestSystemTables checks the remaining msql_stats tables answer over
// SQL, never shadow user objects, and stay out of the plan cache.
func TestSystemTables(t *testing.T) {
	db := open(t)
	res, err := db.Query(`SELECT name, value FROM msql_stats.metrics WHERE name = 'queries'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("queries missing from msql_stats.metrics: %v", res.Rows)
	}
	if _, err := db.Query(`SELECT hits, misses, entries FROM msql_stats.plan_cache`); err != nil {
		t.Fatal(err)
	}
	// The stats virtual table reflects new activity on every read —
	// i.e. its plan is not served stale from the plan cache.
	before, err := db.Query(`SELECT SUM(calls) AS c FROM msql_stats.statements`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM Customers`); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(`SELECT SUM(calls) AS c FROM msql_stats.statements`)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := strconv.ParseFloat(before.Rows[0][0].String(), 64)
	a, _ := strconv.ParseFloat(after.Rows[0][0].String(), 64)
	if a <= b {
		t.Errorf("msql_stats.statements is stale: sum(calls) %v -> %v", b, a)
	}
	// A user table wins over a virtual table of the same name.
	db.MustExec(`CREATE TABLE statements (x INTEGER); INSERT INTO statements VALUES (7)`)
	res, err = db.Query(`SELECT x FROM statements`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].String() != "7" {
		t.Fatalf("user table shadowed by virtual table: %v %v", res, err)
	}
	if len(db.SystemTables()) < 4 {
		t.Errorf("SystemTables() = %v, want the four msql_stats tables", db.SystemTables())
	}
}

// slowDB returns a DB plus a failpoint that keeps its queries in flight
// long enough to observe and kill; the cleanup disarms the failpoint.
func slowDB(t *testing.T) *msql.DB {
	t.Helper()
	db := measureDB(t)
	exec.SetFailPoint(exec.FailOperator, func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	t.Cleanup(exec.ClearFailPoints)
	return db
}

// waitActive polls the live registry until a query with needle in its
// SQL shows up.
func waitActive(t *testing.T, db *msql.DB, needle string) msql.ActiveQuery {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, q := range db.ActiveQueries() {
			if strings.Contains(q.SQL, needle) {
				return q
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("query %q never appeared in ActiveQueries", needle)
	return msql.ActiveQuery{}
}

// TestKillAPI cancels an in-flight query through DB.Kill and checks the
// CANCELED taxonomy code plus registry cleanup.
func TestKillAPI(t *testing.T) {
	db := slowDB(t)
	done := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(context.Background(), cancelQuery)
		done <- err
	}()
	q := waitActive(t, db, "AGGREGATE")
	if q.Source != "api" || q.ID <= 0 {
		t.Errorf("active query = %+v, want source api and a positive id", q)
	}
	if !db.Kill(q.ID) {
		t.Fatalf("Kill(%d) = false for a running query", q.ID)
	}
	err := <-done
	if !errors.Is(err, msql.ErrCanceled) {
		t.Fatalf("killed query returned %v, want ErrCanceled", err)
	}
	if db.Kill(q.ID) {
		t.Error("Kill succeeded twice for the same id")
	}
	for _, still := range db.ActiveQueries() {
		if still.ID == q.ID {
			t.Errorf("killed query %d still in registry", q.ID)
		}
	}
}

// TestKillSQL cancels an in-flight query with the KILL statement and
// checks the unknown-id error shape.
func TestKillSQL(t *testing.T) {
	db := slowDB(t)
	done := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(context.Background(), cancelQuery)
		done <- err
	}()
	q := waitActive(t, db, "AGGREGATE")
	if err := db.Exec(fmt.Sprintf("KILL %d", q.ID)); err != nil {
		t.Fatalf("KILL %d: %v", q.ID, err)
	}
	if err := <-done; !errors.Is(err, msql.ErrCanceled) {
		t.Fatalf("killed query returned %v, want ErrCanceled", err)
	}
	err := db.Exec("KILL 999999")
	if err == nil || !strings.Contains(err.Error(), "no running query") {
		t.Fatalf("KILL of unknown id: %v", err)
	}
}

// TestSlowQueryLog checks the structured slow-query log line: one JSON
// object carrying the query id, source, fingerprint and duration.
func TestSlowQueryLog(t *testing.T) {
	db := open(t)
	var buf bytes.Buffer
	db.SetSlowQueryLog(&buf, time.Nanosecond)
	if _, err := db.Query(`SELECT COUNT(*) FROM Orders`); err != nil {
		t.Fatal(err)
	}
	db.SetSlowQueryLog(nil, 0)
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query log line written")
	}
	var rec struct {
		QueryID     int64   `json:"query_id"`
		Source      string  `json:"source"`
		Fingerprint string  `json:"fingerprint"`
		SQL         string  `json:"sql"`
		DurMs       float64 `json:"dur_ms"`
		Rows        int     `json:"rows"`
		Code        string  `json:"code"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %q: %v", line, err)
	}
	if rec.QueryID <= 0 || rec.Source != "api" || !strings.Contains(rec.Fingerprint, "COUNT(*)") {
		t.Errorf("slow-query record = %+v", rec)
	}
	if rec.Rows != 1 || rec.Code != "" || rec.DurMs < 0 {
		t.Errorf("slow-query record = %+v", rec)
	}
}

// parsePrometheus validates s against the Prometheus text exposition
// format and returns sample values by full series name (with labels).
// It checks: every sample belongs to a declared metric, HELP/TYPE come
// before samples, values parse as floats, histogram buckets are
// cumulative with le="+Inf" equal to _count, and _sum is present.
func parsePrometheus(t *testing.T, s string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && types[b] == "histogram" {
				return b
			}
		}
		return name
	}
	for _, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("unknown metric type in %q", line)
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment form: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample value %q does not parse: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = series[:i]
		}
		if _, ok := types[base(name)]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples[series] = val
	}
	// Histogram invariants.
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		count, ok := samples[name+"_count"]
		if !ok {
			t.Fatalf("histogram %s has no _count", name)
		}
		if _, ok := samples[name+"_sum"]; !ok {
			t.Fatalf("histogram %s has no _sum", name)
		}
		prev, sawInf := -1.0, false
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, name+"_bucket{le=") {
				continue
			}
			sp := strings.LastIndex(line, " ")
			v, _ := strconv.ParseFloat(line[sp+1:], 64)
			if v < prev {
				t.Fatalf("histogram %s buckets not cumulative: %q after %g", name, line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
				if v != count {
					t.Fatalf("histogram %s: +Inf bucket %g != _count %g", name, v, count)
				}
			}
		}
		if !sawInf {
			t.Fatalf("histogram %s has no +Inf bucket", name)
		}
	}
	return samples
}

// TestPrometheusExposition runs a workload and checks the full
// exposition output — including the new latency histograms and
// per-strategy error counters — parses under text-format rules and
// renders deterministically.
func TestPrometheusExposition(t *testing.T) {
	db := open(t)
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`SELECT prodName, AGGREGATE(sumRevenue) AS r FROM OrdersWithRevenue GROUP BY prodName`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(`SELECT noSuchColumn FROM Orders`); err == nil {
		t.Fatal("want bind error")
	}
	out := db.Metrics().Prometheus()
	samples := parsePrometheus(t, out)
	for _, want := range []string{
		`msql_plan_duration_seconds_count`,
		`msql_exec_duration_seconds_count`,
		`msql_strategy_errors_total{strategy="default"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("series %s missing from exposition:\n%s", want, out)
		}
	}
	if n := samples[`msql_exec_duration_seconds_count`]; n < 3 {
		t.Errorf("exec histogram count = %g, want >= 3 (the bind error never executes)", n)
	}
	if n := samples[`msql_strategy_errors_total{strategy="default"}`]; n != 1 {
		t.Errorf("strategy errors = %g, want 1", n)
	}
	if math.IsNaN(samples[`msql_exec_duration_seconds_sum`]) {
		t.Error("histogram sum is NaN")
	}
	if again := db.Metrics().Prometheus(); again != out {
		t.Errorf("exposition output not deterministic:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

// TestIntrospectionHammer runs concurrent queries, stats readers, and
// killers against one session; meaningful under -race.
func TestIntrospectionHammer(t *testing.T) {
	db := measureDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var killed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf(`SELECT b, COUNT(*) FROM big WHERE a > %d GROUP BY b`, (w*100+i)%500)
				if _, err := db.Query(q); err != nil && !errors.Is(err, msql.ErrCanceled) {
					t.Errorf("worker query: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // poller: snapshots must never race with writers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.StatementStats()
			db.Metrics().Prometheus()
			for _, q := range db.ActiveQueries() {
				if q.ID%3 == 0 && db.Kill(q.ID) {
					killed.Add(1)
				}
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	total := int64(0)
	for _, st := range db.StatementStats() {
		total += st.Calls
	}
	if total == 0 {
		t.Fatal("hammer recorded no statements")
	}
	t.Logf("hammer: %d calls recorded, %d killed", total, killed.Load())
}
