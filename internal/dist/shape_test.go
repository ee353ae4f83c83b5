package dist_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/dist"
	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/msql"
)

// literalSchema is one column of every type a WHERE literal can be
// compared with; p, the first column, partitions T.
const literalSchema = `CREATE TABLE T (p VARCHAR, g VARCHAR, i INTEGER, d DOUBLE, s VARCHAR, dt DATE, b BOOLEAN, k INTEGER);
INSERT INTO T VALUES
  ('p1', 'x', -7, -0.0, 'it''s', DATE '2024-01-01', TRUE, 3),
  ('p2', 'y', 9007199254740993, 17.5, 'back\slash', DATE '2024-01-02', FALSE, 4),
  ('p3', 'x', -9007199254740993, 1e300, 'héllo wörld ✓', DATE '2024-03-04', TRUE, 5),
  ('p4', 'z', 9223372036854775807, 0.0, 'hello', DATE '2023-12-31', NULL, 6),
  ('p1', 'y', 5, 2.5, NULL, NULL, FALSE, 7),
  ('p2', 'z', 12, -3.25, 'x', DATE '2024-01-02', TRUE, 8),
  ('p3', 'x', 1, 17.5, 'it''s', DATE '2025-06-30', FALSE, 9),
  ('p4', 'y', 0, -1e300, 'back\slash', DATE '2024-01-03', TRUE, 10);
CREATE VIEW TV AS SELECT *, SUM(k) * 1.0 / COUNT(*) AS MEASURE margin, COUNT(*) AS MEASURE cnt FROM T`

// literalPredicates are WHERE clauses whose literals the coordinator
// lifts into parameters.
var literalPredicates = []string{
	`i > -5`,
	`i = 9007199254740993`,
	`i = -9007199254740993`,
	`i < 9223372036854775807`,
	`d = -0.0`,
	`d < 1e300`,
	`d >= 17.5`,
	`s = 'it''s'`,
	`s = 'back\slash'`,
	`s = 'héllo wörld ✓'`,
	`dt = DATE '2024-01-02'`,
	`dt > '2024-01-01'`,
	`b = TRUE`,
	`i = NULL`,
	`i IN (1, 5, 12)`,
	`i BETWEEN -7 AND 12`,
	`s LIKE 'h%'`,
	`CASE WHEN i > 4 THEN 'big' ELSE 'small' END = 'big'`,
	`1 = 1`,
	`1 = 0`,
	`'x' = 'x'`,
	`i > 1 / 0`,
	`i > 9223372036854775807 + 1`,
}

// literalShapes put a predicate under each execution path: scatter, the
// inlined AGGREGATE(margin), the AT (ALL ...) gather and routed.
var literalShapes = []string{
	`SELECT g, COUNT(*) AS n, MIN(i) AS lo, MAX(k) AS hi FROM T WHERE %s GROUP BY g ORDER BY g`,
	`SELECT g, AGGREGATE(margin) AS m FROM TV WHERE %s GROUP BY g ORDER BY g`,
	`SELECT g, cnt AT (ALL g) AS total, AGGREGATE(cnt) AS n FROM TV WHERE %s GROUP BY g ORDER BY g`,
	`SELECT g, i, s FROM T WHERE p = 'p2' AND (%s) ORDER BY g, i`,
}

// TestLiftedLiteralsMatchSingleNode: whatever the literal and wherever
// the statement runs, lifting its WHERE literals into parameters leaves
// the answer — rows or error code — the single node's.
func TestLiftedLiteralsMatchSingleNode(t *testing.T) {
	ctx := context.Background()
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, literalSchema)
	for _, shape := range literalShapes {
		for _, pred := range literalPredicates {
			q := fmt.Sprintf(shape, pred)
			want, werr := oracle.QueryContext(ctx, q)
			preparedShapeMatches(t, oracle, pred, q, want, werr)
			got, gerr := coord.Query(ctx, q)
			if werr != nil || gerr != nil {
				if code(gerr) != code(werr) {
					t.Fatalf("%s:\ncoordinator error %v\nsingle node %v", q, gerr, werr)
				}
				continue
			}
			sameResult(t, q, got, want)
		}
	}
}

// unboundShapes are the predicates whose shape does not bind where the
// literal text answers: a string literal next to a DATE reads as a DATE,
// a VARCHAR parameter does not, so the coordinator plans the text.
var unboundShapes = map[string]bool{`dt > '2024-01-01'`: true}

// preparedShapeMatches checks that q's shape (ast.Lift), prepared on the
// single node db and run with the literals it took, answers as q's text
// did: the same rows or error code.
func preparedShapeMatches(t *testing.T, db *msql.DB, pred, q string, want *msql.Result, werr error) {
	t.Helper()
	parsed, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	lifted, lits := ast.Lift(parsed, 0)
	args := make([]any, len(lits))
	for i, lit := range lits {
		if args[i], err = engine.EvalConstExpr(lit); err != nil {
			t.Fatalf("%s: literal %s: %v", q, ast.FormatExpr(lit), err)
		}
	}
	sql := ast.FormatQuery(lifted)
	stmt, gerr := db.Prepare(sql)
	var got *msql.Result
	if gerr == nil {
		got, gerr = stmt.QueryContext(context.Background(), args)
	}
	if unboundShapes[pred] {
		if werr != nil || code(gerr) != exec.CodeBind {
			t.Fatalf("%s: shape %s answered %v, text %v; want a bind error and rows", q, sql, gerr, werr)
		}
		return
	}
	if werr != nil || gerr != nil {
		if code(gerr) != code(werr) {
			t.Fatalf("%s:\nshape %s error %v\ntext error %v", q, sql, gerr, werr)
		}
		return
	}
	sameResult(t, sql, got, want)
}

// code is err's taxonomy code, CodeUnknown for none.
func code(err error) exec.Code {
	var ee *exec.Error
	if errors.As(err, &ee) {
		return ee.Code
	}
	if err != nil {
		return exec.CodeUnknown
	}
	return -1
}

// TestScatterPlansOncePerShape: scatter statements of one shape with
// other literals are planned once — by the coordinator's local session
// and by every shard — and every later one is a plan
// cache hit; a table dropped and re-created with other column types
// replans everywhere.
func TestScatterPlansOncePerShape(t *testing.T) {
	const k = 5
	coord, oracle, nodes := cluster(t, 2)
	execBoth(t, coord, oracle, literalSchema)
	caches := func() []msql.PlanCacheCounters {
		out := []msql.PlanCacheCounters{coord.Local().PlanCacheStats()}
		for _, n := range nodes {
			out = append(out, n.db.PlanCacheStats())
		}
		return out
	}
	names := []string{"local", "shard 0", "shard 1"}
	run := func() {
		t.Helper()
		for j := 0; j < k; j++ {
			queryBoth(t, coord, oracle, fmt.Sprintf(
				`SELECT g, COUNT(*) AS n, MAX(k) AS hi FROM T WHERE k > %d AND s <> '%c' GROUP BY g ORDER BY g`, j, 'a'+j))
		}
	}
	check := func(before []msql.PlanCacheCounters) {
		t.Helper()
		for i, after := range caches() {
			hits, misses := after.Hits-before[i].Hits, after.Misses-before[i].Misses
			if misses != 1 || hits != k-1 {
				t.Fatalf("%s: %d misses and %d hits over %d statements of one shape, want 1 and %d", names[i], misses, hits, k, k-1)
			}
		}
	}
	before := caches()
	run()
	check(before)

	execBoth(t, coord, oracle, `DROP VIEW TV; DROP TABLE T;
CREATE TABLE T (k INTEGER, g BOOLEAN, s VARCHAR);
INSERT INTO T VALUES (2, TRUE, 'b'), (7, FALSE, 'c'), (1, TRUE, 'z'), (4, NULL, 'a'), (9, FALSE, 'e')`)
	before = caches()
	run()
	check(before)
}

// TestRoutedAndGatheredPlanOncePerShape: statements of one routed shape
// with other literals are planned once by the shard that answers them,
// as scatter's are, and every later one is a plan cache hit. A gathered
// shape is planned once by the coordinator, which runs its own plan
// over the shards' rows; the shards plan only the read of the table.
func TestRoutedAndGatheredPlanOncePerShape(t *testing.T) {
	const k = 5
	coord, oracle, nodes := cluster(t, 2)
	execBoth(t, coord, oracle, literalSchema)
	caches := func() []msql.PlanCacheCounters {
		out := []msql.PlanCacheCounters{coord.Local().PlanCacheStats()}
		for _, n := range nodes {
			out = append(out, n.db.PlanCacheStats())
		}
		return out
	}
	run := func(shape string) (local, shards []msql.PlanCacheCounters) {
		t.Helper()
		before := caches()
		for j := 0; j < k; j++ {
			queryBoth(t, coord, oracle, fmt.Sprintf(shape, j))
		}
		after := caches()
		for i := range after {
			after[i].Hits -= before[i].Hits
			after[i].Misses -= before[i].Misses
		}
		return after[:1], after[1:]
	}
	once := func(what string, c msql.PlanCacheCounters) {
		t.Helper()
		if c.Misses != 1 || c.Hits != k-1 {
			t.Fatalf("%s: %d misses and %d hits over %d statements of one shape, want 1 and %d", what, c.Misses, c.Hits, k, k-1)
		}
	}

	local, shards := run(`SELECT g, i, s FROM T WHERE p = 'p2' AND k > %d ORDER BY g, i`)
	once("routed, local", local[0])
	var answered msql.PlanCacheCounters
	for _, c := range shards {
		answered.Hits += c.Hits
		answered.Misses += c.Misses
	}
	once("routed, shards", answered)

	local, shards = run(`SELECT g, AVG(d) AS a FROM T WHERE k > %d GROUP BY g ORDER BY g`)
	once("gathered, local", local[0])
	for i, c := range shards {
		once(fmt.Sprintf("gathered, shard %d", i), c)
	}
}

// TestShardStatementErrorIsTheStatementsAnswer: a statement a shard
// rejects in its own words (here a RUNTIME overflow) is the statement's
// error with that code, as on a single node, and not an outage: no
// retry, no failover, and however often it is sent the breakers stay
// closed for the next query.
func TestShardStatementErrorIsTheStatementsAnswer(t *testing.T) {
	ctx := context.Background()
	primary, replica := startShardNode(t, "s0-a"), startShardNode(t, "s0-b")
	other := startShardNode(t, "s1")
	coord, err := dist.New(testConfig([][]string{{primary.URL(), replica.URL()}, {other.URL()}}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	oracle := msql.Open()
	defer oracle.Close()
	execBoth(t, coord, oracle, paperdata.All)

	const overflow = `SELECT COUNT(*) AS n FROM Orders WHERE revenue > 9223372036854775807 + 1`
	_, werr := oracle.QueryContext(ctx, overflow)
	if !errors.Is(werr, msql.ErrRuntime) {
		t.Fatalf("single node answers %v, want a RUNTIME error", werr)
	}
	shards := func() msql.ShardCounters { return *coord.Local().Metrics().Shards }
	before := shards()
	for i := 0; i < 4; i++ { // twice the breaker threshold
		_, err := coord.Query(ctx, overflow)
		if !errors.Is(err, msql.ErrRuntime) || err.Error() != werr.Error() {
			t.Fatalf("attempt %d: coordinator answers %v, want %v", i, err, werr)
		}
	}
	after := shards()
	if after.Retries != before.Retries || after.Failovers != before.Failovers || after.BreakerOpens != before.BreakerOpens || after.ShardErrors != before.ShardErrors {
		t.Fatalf("a statement error counted as an outage: before %+v, after %+v", before, after)
	}
	queryBoth(t, coord, oracle, `SELECT prodName, COUNT(*) AS n FROM Orders GROUP BY prodName ORDER BY prodName`)
}

// TestConcurrentScatterOfOneShape: concurrent statements of one shape
// share the coordinator's and the shards' cached plans, each with its
// own parameters — among them ones no row passes, which finish on the
// cached local plan itself — and each gets its own answer.
func TestConcurrentScatterOfOneShape(t *testing.T) {
	ctx := context.Background()
	coord, oracle, _ := cluster(t, 2)
	execBoth(t, coord, oracle, literalSchema)
	const n = 8
	queries, wants := make([]string, n), make([]*msql.Result, n)
	for i := range queries {
		queries[i] = fmt.Sprintf(`SELECT COUNT(*) AS n, MAX(k) AS hi FROM T WHERE k > %d`, 2*i)
		want, err := oracle.QueryContext(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}
	var wg sync.WaitGroup
	results := make([]*msql.Result, 4*n)
	errs := make([]error, 4*n)
	for j := range results {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			results[j], errs[j] = coord.Query(ctx, queries[j%n])
		}(j)
	}
	wg.Wait()
	for j, res := range results {
		if errs[j] != nil {
			t.Fatalf("%s: %v", queries[j%n], errs[j])
		}
		sameResult(t, queries[j%n], res, wants[j%n])
	}
}
