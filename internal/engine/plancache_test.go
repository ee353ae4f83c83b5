package engine

// Plan-cache correctness: hit/miss accounting, settings-key separation,
// LRU eviction, volatile and disabled-cache bypasses, virtual tables,
// EXPLAIN EXECUTE's cache footer, and a concurrent
// Prepare/Execute/Insert/resize hammer meant to run under -race. What
// makes an entry or a memoized result stale is msql.TestStaleness's.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func newPrepSession(t *testing.T) *Session {
	t.Helper()
	s := New()
	for _, sql := range []string{
		"CREATE TABLE t (a INT, b STRING)",
		"INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')",
	} {
		if _, err := s.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return s
}

// TestPreparedSQLRoundTrip drives the SQL-level surface end to end:
// PREPARE, EXECUTE (cold then warm), handle-based ? placeholders, and
// DEALLOCATE semantics.
func TestPreparedSQLRoundTrip(t *testing.T) {
	s := newPrepSession(t)
	mustExec := func(sql string) {
		t.Helper()
		if _, err := s.Execute(sql); err != nil {
			t.Fatal(sql, err)
		}
	}
	mustExec("PREPARE q AS SELECT a, b FROM t WHERE a >= $1 ORDER BY a")
	r, err := s.Query("EXECUTE q(2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].String() != "2" {
		t.Fatalf("rows=%v", r.Rows)
	}
	if r, err = s.Query("EXECUTE q(2)"); err != nil || len(r.Rows) != 2 {
		t.Fatalf("warm execute: rows=%v err=%v", r, err)
	}
	pc := s.PlanCacheCountersSnapshot()
	if pc.Hits != 1 || pc.Misses != 1 || pc.Entries != 1 {
		t.Fatalf("after cold+warm: %+v", pc)
	}

	// SQL PREPARE of an existing name must error; DEALLOCATE frees it.
	if _, err := s.Execute("PREPARE q AS SELECT a FROM t"); err == nil {
		t.Fatal("duplicate PREPARE q succeeded")
	}
	mustExec("PREPARE q2 AS SELECT COUNT(*) FROM t WHERE a > $1")
	mustExec("DEALLOCATE q2")
	if _, err := s.Query("EXECUTE q2(0)"); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE succeeded")
	}

	// ? placeholders through the handle API share the same cache.
	ps, err := s.Prepare("SELECT COUNT(*) FROM t WHERE a > ?")
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 1 {
		t.Fatalf("NumParams=%d", ps.NumParams())
	}
	res, err := ps.Execute(sqltypes.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("count=%v", res.Rows)
	}
}

// TestPlanCacheSettingsSeparateEntries: the same prepared statement
// executed under different execution settings must occupy different
// cache entries — a plan compiled vectorized at 4 workers is not the
// plan for row mode at 1 worker.
func TestPlanCacheSettingsSeparateEntries(t *testing.T) {
	s := newPrepSession(t)
	ps, err := s.Prepare("SELECT a FROM t WHERE a >= $1 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	on, off := true, false
	w1, w4 := 1, 4
	ovs := []*Overrides{
		{Vectorized: &on, Workers: &w1},
		{Vectorized: &off, Workers: &w1},
		{Vectorized: &on, Workers: &w4},
	}
	args := []sqltypes.Value{sqltypes.NewInt(2)}
	for _, ov := range ovs {
		if _, err := ps.ExecuteContext(ctx, args, ov); err != nil {
			t.Fatal(err)
		}
	}
	pc := s.PlanCacheCountersSnapshot()
	if pc.Entries != 3 || pc.Misses != 3 || pc.Hits != 0 {
		t.Fatalf("after 3 distinct settings: %+v", pc)
	}
	for _, ov := range ovs {
		if _, err := ps.ExecuteContext(ctx, args, ov); err != nil {
			t.Fatal(err)
		}
	}
	pc = s.PlanCacheCountersSnapshot()
	if pc.Entries != 3 || pc.Hits != 3 {
		t.Fatalf("after re-running each: %+v", pc)
	}

	// Different parameter kinds also separate entries: $1 as DOUBLE
	// plans a different comparison than $1 as INTEGER.
	if _, err := ps.ExecuteContext(ctx, []sqltypes.Value{sqltypes.NewFloat(2)}, ovs[0]); err != nil {
		t.Fatal(err)
	}
	pc = s.PlanCacheCountersSnapshot()
	if pc.Entries != 4 {
		t.Fatalf("DOUBLE kind did not get its own entry: %+v", pc)
	}
}

// TestPlanCacheLRUEviction: a tiny cap evicts the least recently used
// entry, and a shrink via SetPlanCacheSize evicts down to the new cap.
func TestPlanCacheLRUEviction(t *testing.T) {
	s := newPrepSession(t)
	s.SetPlanCacheSize(2)
	// Three distinct query texts: the cache keys on normalized SQL, so
	// statements sharing a text would (correctly) share one entry.
	for name, sql := range map[string]string{
		"s1": "SELECT a FROM t WHERE a >= $1",
		"s2": "SELECT b FROM t WHERE a >= $1",
		"s3": "SELECT a, b FROM t WHERE a >= $1",
	} {
		if _, err := s.Execute(fmt.Sprintf("PREPARE %s AS %s", name, sql)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"EXECUTE s1(1)", "EXECUTE s2(1)", "EXECUTE s3(1)"} {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	pc := s.PlanCacheCountersSnapshot()
	if pc.Entries != 2 || pc.Evictions != 1 {
		t.Fatalf("after 3 inserts at cap 2: %+v", pc)
	}
	// s1 was the LRU victim: re-running it is a miss; s3 stayed hot.
	if _, err := s.Query("EXECUTE s3(1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("EXECUTE s1(1)"); err != nil {
		t.Fatal(err)
	}
	pc = s.PlanCacheCountersSnapshot()
	if pc.Hits != 1 || pc.Misses != 4 {
		t.Fatalf("LRU order wrong: %+v", pc)
	}
	s.SetPlanCacheSize(1)
	pc = s.PlanCacheCountersSnapshot()
	if pc.Entries != 1 {
		t.Fatalf("shrink did not evict: %+v", pc)
	}
}

// TestPlanCacheDisabledBypasses: size 0 turns every prepared execution
// into a bypass — no lookups, no entries, still correct results.
func TestPlanCacheDisabledBypasses(t *testing.T) {
	s := newPrepSession(t)
	s.SetPlanCacheSize(0)
	ps, err := s.Prepare("SELECT COUNT(*) FROM t WHERE a > ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := ps.Execute(sqltypes.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].String() != "2" {
			t.Fatalf("run %d: %v", i, res.Rows)
		}
	}
	pc := s.PlanCacheCountersSnapshot()
	if pc.Bypasses != 3 || pc.Hits != 0 || pc.Misses != 0 || pc.Entries != 0 {
		t.Fatalf("disabled cache: %+v", pc)
	}
}

// TestPlanCacheVolatileBypass: a plan containing RANDOM() must be
// replanned per execution — caching it would freeze the random stream.
func TestPlanCacheVolatileBypass(t *testing.T) {
	s := newPrepSession(t)
	ps, err := s.Prepare("SELECT a, RANDOM() FROM t WHERE a >= ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ps.Execute(sqltypes.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	pc := s.PlanCacheCountersSnapshot()
	if pc.Entries != 0 || pc.Hits != 0 || pc.Bypasses != 2 {
		t.Fatalf("volatile plan was cached: %+v", pc)
	}
}

// TestPlanCacheResultMemo: repeated executions of a cache-resident
// entry with identical arguments are answered from the result memo and
// counted as queries that took no time; different arguments are not.
func TestPlanCacheResultMemo(t *testing.T) {
	s := newPrepSession(t)
	ps, err := s.Prepare("SELECT a, b FROM t WHERE a >= ? ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	run := func(arg int64) *Result {
		t.Helper()
		res, err := ps.Execute(sqltypes.NewInt(arg))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Execution 1 plans (miss), 2 executes warm and stores the memo,
	// 3 hits the memo.
	r1, r2, r3 := run(2), run(2), run(2)
	pc := s.PlanCacheCountersSnapshot()
	if pc.MemoHits != 1 || pc.Hits != 2 || pc.Misses != 1 {
		t.Fatalf("after 3 identical executions: %+v", pc)
	}
	for _, r := range []*Result{r2, r3} {
		if fmt.Sprint(r.Rows) != fmt.Sprint(r1.Rows) {
			t.Fatalf("memo rows diverge: %v vs %v", r.Rows, r1.Rows)
		}
	}
	// The memo-answered execution is a query like the other two, and it
	// leaves its own (empty) executor counters behind, not its
	// predecessor's.
	m := s.MetricsSnapshot()
	if m.Queries != 3 || m.RowsReturned != 6 || m.ByStrategy["default"].Queries != 3 ||
		!strings.Contains(m.Prometheus(), "\nmsql_queries_total 3\n") {
		t.Fatalf("memo hit missing from metrics: %+v", m)
	}
	if st := s.LastStats(); st.RowsScanned != 0 {
		t.Fatalf("LastStats after a memo hit shows the previous execution: %+v", st)
	}
	for _, ss := range s.StatementStats() {
		if strings.HasPrefix(ss.Fingerprint, "SELECT") && ss.Calls != m.Queries {
			t.Fatalf("statement stats count %d calls, metrics %d queries", ss.Calls, m.Queries)
		}
	}
	// A different binding misses the memo but still reuses the plan.
	if r := run(3); len(r.Rows) != 1 {
		t.Fatalf("arg=3 rows=%v", r.Rows)
	}
	pc = s.PlanCacheCountersSnapshot()
	if pc.MemoHits != 1 || pc.Hits != 3 {
		t.Fatalf("distinct binding hit the memo: %+v", pc)
	}
	// Callers own their rows: mutating a returned result must not leak
	// into later memo hits.
	warm := run(2)
	warm.Rows[0][0] = sqltypes.NewInt(777)
	if r := run(2); r.Rows[0][0].String() == "777" {
		t.Fatal("memo shares storage with caller rows")
	}
}

// TestPlanCacheMemoDisabled: with the cache off (and for volatile
// plans, which never become resident) no execution touches the memo.
func TestPlanCacheMemoDisabled(t *testing.T) {
	s := newPrepSession(t)
	s.SetPlanCacheSize(0)
	ps, err := s.Prepare("SELECT COUNT(*) FROM t WHERE a > ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ps.Execute(sqltypes.NewInt(0)); err != nil {
			t.Fatal(err)
		}
	}
	if pc := s.PlanCacheCountersSnapshot(); pc.MemoHits != 0 {
		t.Fatalf("memo hit with cache disabled: %+v", pc)
	}
}

// TestPlanCacheVirtualTable: a virtual table's rows change without
// notice and it says so by reporting a data state that is never the
// same: plans over it are cached like any other, their results never
// memoized — also when the scan sits in a subquery.
func TestPlanCacheVirtualTable(t *testing.T) {
	s := newPrepSession(t)
	var calls int64
	err := s.RegisterVirtualTable("sys.ticks", []string{"n"}, []sqltypes.Type{{Kind: sqltypes.KindInt}},
		func() [][]sqltypes.Value {
			calls++
			return [][]sqltypes.Value{{sqltypes.NewInt(calls)}}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT n FROM sys.ticks",
		"SELECT (SELECT MAX(n) FROM sys.ticks) FROM t WHERE a = 1",
	} {
		ps, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		before := s.PlanCacheCountersSnapshot()
		for i := 0; i < 3; i++ {
			res, err := ps.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].I; got != calls {
				t.Fatalf("%s: execution %d returned tick %d, provider is at %d", sql, i, got, calls)
			}
		}
		pc := s.PlanCacheCountersSnapshot()
		if pc.Hits-before.Hits != 2 || pc.MemoHits != 0 || pc.Bypasses != 0 {
			t.Fatalf("%s: %+v", sql, pc)
		}
	}
}

// TestExplainExecuteCacheFooter: EXPLAIN [ANALYZE] EXECUTE reports the
// cache outcome; once warmed, the footer says cached=true with a stable
// 16-hex key digest.
func TestExplainExecuteCacheFooter(t *testing.T) {
	s := newPrepSession(t)
	if _, err := s.Execute("PREPARE q AS SELECT a, b FROM t WHERE a >= $1 ORDER BY a"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Execute("EXPLAIN EXECUTE q(2)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs[0].Message, "Cache: cached=false key=") {
		t.Fatalf("cold EXPLAIN EXECUTE:\n%s", rs[0].Message)
	}
	// EXPLAIN EXECUTE plans (and caches) without running; the next
	// execution — analyzed here — is warm.
	rs, err = s.Execute("EXPLAIN ANALYZE EXECUTE q(2)")
	if err != nil {
		t.Fatal(err)
	}
	msg := rs[0].Message
	if !strings.Contains(msg, "Cache: cached=true key=") {
		t.Fatalf("warm EXPLAIN ANALYZE EXECUTE:\n%s", msg)
	}
	if !strings.Contains(msg, "Totals: rows=2") {
		t.Fatalf("missing analyze totals:\n%s", msg)
	}
	i := strings.Index(msg, "key=")
	digest := strings.TrimSpace(msg[i+4:])
	if len(digest) != 16 {
		t.Fatalf("key digest %q is not 16 hex chars", digest)
	}
}

// TestPlanCacheConcurrentHammer races prepared executions against
// inserts (invalidation), SQL EXECUTE, and live cache resizing. Run
// under -race; correctness here is "no error, no data race, counters
// consistent".
func TestPlanCacheConcurrentHammer(t *testing.T) {
	s := newPrepSession(t)
	if _, err := s.Execute("PREPARE q AS SELECT COUNT(*) FROM t WHERE a > $1"); err != nil {
		t.Fatal(err)
	}
	ps, err := s.Prepare("SELECT a FROM t WHERE a >= ? ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 6, 60
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := s.Query("EXECUTE q(1)"); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := ps.Execute(sqltypes.NewInt(2)); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, err := s.Execute(fmt.Sprintf("INSERT INTO t VALUES (%d,'h')", 10+i)); err != nil {
						errCh <- err
						return
					}
				default:
					s.SetPlanCacheSize([]int{0, 2, 128}[i%3])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s.SetPlanCacheSize(DefaultPlanCacheSize)
	pc := s.PlanCacheCountersSnapshot()
	if pc.Hits+pc.Misses+pc.Bypasses == 0 {
		t.Fatalf("hammer never touched the cache: %+v", pc)
	}
	t.Logf("hammer counters: %+v", pc)
}

// TestPlanQueryAndPartialAggregateUseThePlanCache: PlanQuery and
// PartialAggregate look their plans up as a prepared execution does —
// one text, kinds and settings make one entry, a hit on it skips
// parsing, and the statement stats gather under the query's fingerprint
// — while a wrong parameter count is a bind error and a disabled cache
// plans every call.
func TestPlanQueryAndPartialAggregateUseThePlanCache(t *testing.T) {
	ctx := context.Background()
	s := newPrepSession(t)
	const q = "SELECT b, COUNT(*) FROM t WHERE a > $1 GROUP BY b"
	one := []sqltypes.Value{sqltypes.NewInt(1)}
	if _, err := s.PlanQuery(ctx, q, one, nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.PartialAggregate(ctx, q, []sqltypes.Value{sqltypes.NewInt(2)}, "", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Key[0].S != "z" {
		t.Fatalf("partial groups %+v, want z alone", res.Groups)
	}
	if pc := s.PlanCacheCountersSnapshot(); pc.Misses != 1 || pc.Hits != 1 || pc.Entries != 1 {
		t.Fatalf("PlanQuery then PartialAggregate of one text: %+v, want 1 miss, 1 hit, 1 entry", pc)
	}
	var calls int64
	for _, st := range s.StatementStats() {
		if strings.Contains(st.Fingerprint, "COUNT(*)") {
			calls += st.Calls
		}
	}
	if calls != 2 {
		t.Fatalf("statement stats counted %d calls of the query, want 2", calls)
	}

	if _, err := s.PlanQuery(ctx, q, nil, nil); err == nil || !strings.Contains(err.Error(), "parameter $1 outside a prepared statement") {
		t.Fatalf("no parameters for $1: %v", err)
	}
	two := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(2)}
	if _, err := s.PlanQuery(ctx, q, two, nil); err == nil || !strings.Contains(err.Error(), "statement has 1 parameters, got 2") {
		t.Fatalf("two parameters for $1: %v", err)
	}

	s.SetPlanCacheSize(0)
	before := s.PlanCacheCountersSnapshot()
	for i := 0; i < 2; i++ {
		if _, err := s.PlanQuery(ctx, q, one, nil); err != nil {
			t.Fatal(err)
		}
	}
	if pc := s.PlanCacheCountersSnapshot(); pc.Hits != before.Hits || pc.Bypasses != before.Bypasses+2 {
		t.Fatalf("disabled cache: %+v after %+v, want two bypasses and no hit", pc, before)
	}
}
