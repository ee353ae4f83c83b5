package msql_test

// Observability tests: EXPLAIN ANALYZE goldens (timings masked, counts
// exact), the EXPLAIN-ANALYZE-vs-LastStats consistency guarantee, the
// lifecycle tracer, the session metrics registry, and the LastStats
// race fix (run with -race).

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/msql"
)

// maskTimes replaces wall-clock annotations so goldens are stable.
func maskTimes(s string) string {
	return regexp.MustCompile(`time=[^ )]*`).ReplaceAllString(s, "time=X")
}

// openMemo is open() pinned to StrategyMemo and one worker, the
// configuration the goldens were derived under.
func openMemo(t testing.TB) *msql.DB {
	t.Helper()
	db := open(t)
	db.SetStrategy(msql.StrategyMemo)
	db.SetWorkers(1)
	return db
}

const listing3SQL = `SELECT prodName, AGGREGATE(sumRevenue) AS r FROM OrdersWithRevenue GROUP BY prodName ORDER BY prodName`

const listing6SQL = `SELECT prodName, sumRevenue,
        sumRevenue / sumRevenue AT (ALL prodName) AS proportionOfTotalRevenue
 FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o
 GROUP BY prodName ORDER BY prodName`

func TestExplainGoldenListing3(t *testing.T) {
	db := openMemo(t)
	got, err := db.Explain(listing3SQL)
	if err != nil {
		t.Fatal(err)
	}
	want := `Sort $0:prodName ASC
  Project $0:prodName AS prodName, subquery(scalar memo) [measure sumRevenue at prodName = corr^1$0:prodName] AS r
    [measure sumRevenue at prodName = corr^1$0:prodName]
      Project $0:agg0 AS sumRevenue
        Aggregate aggs [SUM($3:revenue)]
          Filter ($0:prodName IS NOT DISTINCT FROM corr^1$0:prodName)
            Scan Orders
    Aggregate by [$0:prodName]
      Scan Orders
`
	if got != want {
		t.Errorf("plain EXPLAIN mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(got, "rows=") || strings.Contains(got, "time=") {
		t.Errorf("plain EXPLAIN must carry no runtime annotations:\n%s", got)
	}
}

// TestExplainAnalyzeGoldenListing3 locks the annotated rendering of the
// paper's Listing-3-style aggregation under StrategyMemo: 3 product
// contexts, so exactly 3 subquery evals and no memo hits, each served
// from a 3-bucket partition that the first context builds and that
// keeps SUM states, not rows. The Scan node is shared between the
// measure's base plan and the outer plan but reported per position: once
// in the main plan, once in the measure (the partition's one pass, whose
// Filter reports the 5 rows it kept) — 10 rows of the 5-row Orders
// table, where one scan per context read 20.
func TestExplainAnalyzeGoldenListing3(t *testing.T) {
	db := openMemo(t)
	got, err := db.ExplainAnalyze(listing3SQL)
	if err != nil {
		t.Fatal(err)
	}
	want := `Sort $0:prodName ASC (rows=3 time=X)
  Project $0:prodName AS prodName, subquery(scalar memo) [measure sumRevenue at prodName = corr^1$0:prodName] AS r (rows=3 time=X)
    [measure sumRevenue at prodName = corr^1$0:prodName] (evals=3 hits=0) partitioned=3
      Project $0:agg0 AS sumRevenue (rows=3 loops=3 time=X)
        Aggregate aggs [SUM($3:revenue)] (rows=3 loops=3 time=X)
          Filter ($0:prodName IS NOT DISTINCT FROM corr^1$0:prodName) (rows=5 time=X)
            Scan Orders (rows=5 time=X)
    Aggregate by [$0:prodName] (rows=3 time=X)
      Scan Orders (rows=5 time=X)
Totals: rows=3 scanned=10 evals=3 hits=0 fanouts=0
`
	if maskTimes(got) != want {
		t.Errorf("EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", maskTimes(got), want)
	}
}

// TestExplainAnalyzeGoldenListing6 is the paper's share-of-total query
// (Listing 6). The two syntactic references to sumRevenue at the group
// context are distinct subqueries (each evaluated per group: 3 evals),
// while the AT (ALL prodName) grand total is evaluated once and served
// from the memo twice.
func TestExplainAnalyzeGoldenListing6(t *testing.T) {
	db := openMemo(t)
	got, err := db.ExplainAnalyze(listing6SQL)
	if err != nil {
		t.Fatal(err)
	}
	want := `Sort $0:prodName ASC (rows=3 time=X)
  Project $0:prodName AS prodName, subquery(scalar memo) [measure sumRevenue at prodName = corr^1$0:prodName] AS sumRevenue, /(subquery(scalar memo) [measure sumRevenue at prodName = corr^1$0:prodName], subquery(scalar memo) [measure sumRevenue at TRUE]) AS proportionOfTotalRevenue (rows=3 time=X)
    [measure sumRevenue at prodName = corr^1$0:prodName] (evals=3 hits=0) partitioned=3
      Project $0:agg0 AS sumRevenue (rows=3 loops=3 time=X)
        Aggregate aggs [SUM($3:revenue)] (rows=3 loops=3 time=X)
          Filter ($0:prodName IS NOT DISTINCT FROM corr^1$0:prodName) (rows=5 time=X)
            Scan Orders (rows=5 time=X)
    [measure sumRevenue at prodName = corr^1$0:prodName] (evals=3 hits=0) partitioned=3
      Project $0:agg0 AS sumRevenue (rows=3 loops=3 time=X)
        Aggregate aggs [SUM($3:revenue)] (rows=3 loops=3 time=X)
          Filter ($0:prodName IS NOT DISTINCT FROM corr^1$0:prodName) (rows=5 time=X)
            Scan Orders (rows=5 time=X)
    [measure sumRevenue at TRUE] (evals=1 hits=2)
      Project $0:agg0 AS sumRevenue (rows=1 time=X)
        Aggregate aggs [SUM($3:revenue)] (rows=1 time=X)
          Scan Orders (rows=5 time=X)
    Aggregate by [$0:prodName] (rows=3 time=X)
      Scan Orders (rows=5 time=X)
Totals: rows=3 scanned=20 evals=7 hits=2 fanouts=0
`
	if maskTimes(got) != want {
		t.Errorf("EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", maskTimes(got), want)
	}
}

// TestExplainAnalyzeMatchesLastStats asserts the acceptance criterion:
// the Totals line of EXPLAIN ANALYZE agrees exactly with the session's
// LastStats, under every strategy and at several worker counts.
func TestExplainAnalyzeMatchesLastStats(t *testing.T) {
	re := regexp.MustCompile(`Totals: rows=(\d+) scanned=(\d+) evals=(\d+) hits=(\d+) fanouts=(\d+)`)
	for _, strat := range []struct {
		name string
		s    msql.Strategy
	}{{"default", msql.StrategyDefault}, {"memo", msql.StrategyMemo}, {"naive", msql.StrategyNaive}} {
		for _, w := range []int{1, 4} {
			db := open(t)
			db.SetStrategy(strat.s)
			db.SetWorkers(w)
			got, err := db.ExplainAnalyze(listing6SQL)
			if err != nil {
				t.Fatal(err)
			}
			m := re.FindStringSubmatch(got)
			if m == nil {
				t.Fatalf("%s/w=%d: no Totals line in:\n%s", strat.name, w, got)
			}
			st := db.LastStats()
			want := fmt.Sprintf("Totals: rows=3 scanned=%d evals=%d hits=%d fanouts=%d",
				st.RowsScanned, st.SubqueryEvals, st.SubqueryCacheHits, st.ParallelFanouts)
			if m[0] != want {
				t.Errorf("%s/w=%d: totals %q, LastStats says %q", strat.name, w, m[0], want)
			}
		}
	}
}

// TestExplainAnalyzeExecutes verifies EXPLAIN ANALYZE via the SQL
// statement form, and that it really ran the query (counts are nonzero).
func TestExplainAnalyzeStatement(t *testing.T) {
	db := openMemo(t)
	results, err := db.Run(`EXPLAIN ANALYZE ` + listing3SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	msg := results[0].Message
	if !strings.Contains(msg, "Totals: rows=3 scanned=10 evals=3 hits=0") {
		t.Errorf("EXPLAIN ANALYZE statement output:\n%s", msg)
	}
	// Lowercase keyword must work too.
	results, err = db.Run(`explain analyze ` + listing3SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(results[0].Message, "Totals:") {
		t.Errorf("lowercase explain analyze output:\n%s", results[0].Message)
	}
}

// TestTraceSpans runs the share-of-total query with a SpanCollector
// installed and checks every lifecycle phase reports.
func TestTraceSpans(t *testing.T) {
	db := openMemo(t)
	col := &exec.SpanCollector{}
	db.SetTrace(col)
	if _, err := db.Query(listing6SQL); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"parse", "bind", "expand", "optimize", "execute", "operator"} {
		if len(col.ByPhase(phase)) == 0 {
			t.Errorf("no %q spans; got %+v", phase, col.Spans())
		}
	}
	// Expansion spans name the measure and its context transform.
	var sawMeasure bool
	for _, sp := range col.ByPhase("expand") {
		if sp.Name == "sumRevenue" {
			sawMeasure = true
			if sp.Attrs["strategy"] != "subquery" {
				t.Errorf("expand span attrs = %v", sp.Attrs)
			}
		}
	}
	if !sawMeasure {
		t.Errorf("no expand span for sumRevenue: %+v", col.ByPhase("expand"))
	}
	// Execute span carries the counters.
	ex := col.ByPhase("execute")
	if len(ex) != 1 || ex[0].Attrs["evals"] != "7" || ex[0].Attrs["hits"] != "2" {
		t.Errorf("execute span = %+v", ex)
	}
	// SetTrace(nil) removes the hook.
	db.SetTrace(nil)
	n := len(col.Spans())
	if _, err := db.Query(listing3SQL); err != nil {
		t.Fatal(err)
	}
	if len(col.Spans()) != n {
		t.Error("spans recorded after SetTrace(nil)")
	}
}

// TestInlineTraceSpan checks the default strategy reports measure
// inlining (§6.4) rather than subquery expansion.
func TestInlineTraceSpan(t *testing.T) {
	db := open(t)
	db.SetStrategy(msql.StrategyDefault)
	col := &exec.SpanCollector{}
	db.SetTrace(col)
	if _, err := db.Query(listing3SQL); err != nil {
		t.Fatal(err)
	}
	var sawInline bool
	for _, sp := range col.ByPhase("expand") {
		if sp.Attrs["strategy"] == "inline" && sp.Name == "sumRevenue" {
			sawInline = true
		}
	}
	if !sawInline {
		t.Errorf("no inline expand span: %+v", col.ByPhase("expand"))
	}
}

// TestMetricsRegistry checks the cumulative session counters and both
// export formats.
func TestMetricsRegistry(t *testing.T) {
	db := open(t)
	db.SetWorkers(1)
	db.SetStrategy(msql.StrategyMemo)
	for i := 0; i < 2; i++ {
		if _, err := db.Query(listing6SQL); err != nil {
			t.Fatal(err)
		}
	}
	db.SetStrategy(msql.StrategyNaive)
	if _, err := db.Query(listing3SQL); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`SELECT no_such_column FROM Orders`); err == nil {
		t.Fatal("expected error")
	}

	snap := db.Metrics()
	if snap.Queries != 3 {
		t.Errorf("queries = %d, want 3", snap.Queries)
	}
	if snap.Errors != 1 {
		t.Errorf("errors = %d, want 1", snap.Errors)
	}
	if snap.RowsReturned != 9 {
		t.Errorf("rows returned = %d, want 9", snap.RowsReturned)
	}
	// Two Listing-6 runs: 7 evals + 2 hits each; naive Listing 3: 3 evals.
	if snap.SubqueryEvals != 17 || snap.CacheHits != 4 {
		t.Errorf("evals=%d hits=%d, want 17/4", snap.SubqueryEvals, snap.CacheHits)
	}
	wantRatio := 4.0 / 21.0
	if diff := snap.CacheHitRatio - wantRatio; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cache hit ratio = %g, want %g", snap.CacheHitRatio, wantRatio)
	}
	if snap.ByStrategy["memo"].Queries != 2 || snap.ByStrategy["naive"].Queries != 1 {
		t.Errorf("by-strategy = %+v", snap.ByStrategy)
	}
	if snap.ByStrategy["memo"].ExecNs <= 0 || snap.ByStrategy["memo"].PlanNs <= 0 {
		t.Errorf("memo timings not recorded: %+v", snap.ByStrategy["memo"])
	}

	j := snap.JSON()
	for _, want := range []string{`"queries": 3`, `"cache_hits": 4`, `"by_strategy"`} {
		if !strings.Contains(j, want) {
			t.Errorf("JSON export missing %q:\n%s", want, j)
		}
	}
	p := snap.Prometheus()
	for _, want := range []string{
		"msql_queries_total 3",
		"msql_query_errors_total 1",
		"msql_subquery_cache_hits_total 4",
		`msql_strategy_queries_total{strategy="memo"} 2`,
		`msql_strategy_queries_total{strategy="naive"} 1`,
		"# TYPE msql_cache_hit_ratio gauge",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, p)
		}
	}
}

// TestLastStatsDuringQuery reads LastStats while a parallel query is
// mutating the counters from worker goroutines — the data race fixed by
// making LastStats take an atomic snapshot. Meaningful under -race.
func TestLastStatsDuringQuery(t *testing.T) {
	db := open(t)
	db.SetStrategy(msql.StrategyMemo)
	db.SetWorkers(4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = db.LastStats()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := db.Query(listing6SQL); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	st := db.LastStats()
	if st.SubqueryEvals != 7 || st.SubqueryCacheHits != 2 {
		t.Errorf("final stats evals=%d hits=%d, want 7/2", st.SubqueryEvals, st.SubqueryCacheHits)
	}
}
