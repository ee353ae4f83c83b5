package msql_test

// Semantic tests for the measure machinery beyond the paper's listings:
// composability and closure (§5.4 / E16), the security "hologram"
// property (§5.5 / E15), modifier laws (§3.5 / E18), strategy equivalence
// (E20), NULL dimensions, semi-additive measures (§5.3 / E17), and error
// behaviour.

import (
	"errors"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/msql"
)

func mustRows(t *testing.T, db *msql.DB, sql string) [][]string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query failed: %v\nSQL: %s", err, sql)
	}
	return rowsAsStrings(res)
}

func sameRows(t *testing.T, a, b [][]string, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows\n%v\n%v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if strings.Join(a[i], "|") != strings.Join(b[i], "|") {
			t.Errorf("%s: row %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// ---------------------------------------------------------------------------
// E16: composability and closure

func TestMeasureReferencingSiblingMeasure(t *testing.T) {
	db := open(t)
	// profit defined in terms of two sibling measures.
	got := mustRows(t, db, `
		SELECT prodName, AGGREGATE(margin) AS m
		FROM (SELECT *,
		        SUM(revenue) AS MEASURE rev,
		        SUM(cost) AS MEASURE c,
		        (rev - c) / rev AS MEASURE margin
		      FROM Orders) AS o
		GROUP BY prodName ORDER BY prodName`)
	want := [][]string{{"Acme", "0.6"}, {"Happy", "0.47"}, {"Whizz", "0.67"}}
	sameRows(t, got, want, "sibling measures")
}

func TestMeasureOnMeasureThroughNestedQueries(t *testing.T) {
	db := open(t)
	// A measure defined over a table whose measures came from a subquery:
	// ratio = rev / cost composed through the shared base.
	got := mustRows(t, db, `
		SELECT prodName, AGGREGATE(ratio) AS r
		FROM (SELECT *, rev / c AS MEASURE ratio
		      FROM (SELECT *,
		              SUM(revenue) AS MEASURE rev,
		              SUM(cost) AS MEASURE c
		            FROM Orders) AS inner1) AS outer1
		GROUP BY prodName ORDER BY prodName`)
	// Acme 5/2=2.5, Happy 17/9=1.889, Whizz 3/1=3.
	want := [][]string{{"Acme", "2.5"}, {"Happy", "1.89"}, {"Whizz", "3"}}
	sameRows(t, got, want, "measure-on-measure")
}

func TestClosureReexportThroughWhere(t *testing.T) {
	db := open(t)
	// Re-export bakes the WHERE into the measure: the inner query removes
	// Bob, and the measure cannot be subverted back (paper §3.5).
	got := mustRows(t, db, `
		SELECT prodName, AGGREGATE(rev) AS r, rev AT (ALL) AS total
		FROM (SELECT prodName, custName, rev
		      FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS v
		      WHERE custName <> 'Bob') AS filtered
		GROUP BY prodName ORDER BY prodName`)
	// Without Bob: Happy 6+7=13, Whizz 3 (Acme had only Bob's order, so
	// no group). AT (ALL) lifts group filters but NOT the baked WHERE:
	// total = 16 everywhere, never 25.
	want := [][]string{{"Happy", "13", "16"}, {"Whizz", "3", "16"}}
	sameRows(t, got, want, "baked WHERE")
}

func TestClosureReexportRenamesDims(t *testing.T) {
	db := open(t)
	got := mustRows(t, db, `
		SELECT product, AGGREGATE(rev) AS r
		FROM (SELECT prodName AS product, rev
		      FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS v) AS renamed
		GROUP BY product ORDER BY product`)
	want := [][]string{{"Acme", "5"}, {"Happy", "17"}, {"Whizz", "3"}}
	sameRows(t, got, want, "renamed dims")
}

func TestViewsOverViewsWithMeasures(t *testing.T) {
	db := open(t)
	db.MustExec(`
		CREATE VIEW V1 AS SELECT *, SUM(revenue) AS MEASURE rev FROM Orders;
		CREATE VIEW V2 AS SELECT prodName, orderDate, rev FROM V1;
	`)
	got := mustRows(t, db, `
		SELECT prodName, AGGREGATE(rev) AS r FROM V2 GROUP BY prodName ORDER BY prodName`)
	want := [][]string{{"Acme", "5"}, {"Happy", "17"}, {"Whizz", "3"}}
	sameRows(t, got, want, "view over view")
}

// Reducing the projected dimensions reduces what contexts can constrain:
// dropping orderDate from the projection makes SET orderYear an error.
func TestDimensionalityShrinksWithProjection(t *testing.T) {
	db := open(t)
	_, err := db.Query(`
		SELECT prodName, rev AT (SET orderDate = DATE '2023-11-28') AS r
		FROM (SELECT prodName, rev
		      FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS v) AS narrow
		GROUP BY prodName`)
	if err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Errorf("constraining a dropped dimension should fail, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// E18: modifier laws

// cse AT (m1 m2) ≡ (cse AT (m2)) AT (m1) — paper §3.5.
func TestModifierSequencingLaw(t *testing.T) {
	db := open(t)
	q1 := `
		SELECT prodName, rev AT (ALL prodName SET custName = 'Alice') AS x
		FROM OrdersWithRevenue GROUP BY prodName ORDER BY prodName`
	q2 := `
		SELECT prodName, rev AT (SET custName = 'Alice') AT (ALL prodName) AS x
		FROM OrdersWithRevenue GROUP BY prodName ORDER BY prodName`
	db.MustExec(`CREATE VIEW OWR2 AS SELECT *, SUM(revenue) AS MEASURE rev FROM Orders`)
	q1 = strings.ReplaceAll(q1, "OrdersWithRevenue", "OWR2")
	q2 = strings.ReplaceAll(q2, "OrdersWithRevenue", "OWR2")
	sameRows(t, mustRows(t, db, q1), mustRows(t, db, q2), "sequencing law")
	// And the law is not vacuous: both should give Alice's total 13.
	got := mustRows(t, db, q1)
	for _, row := range got {
		if row[1] != "13" {
			t.Errorf("expected Alice's revenue 13 in every group, got %v", row)
		}
	}
}

func TestAggregateEqualsEvalAtVisible(t *testing.T) {
	db := open(t)
	q := func(expr string) string {
		return `
			SELECT o.prodName, ` + expr + ` AS v
			FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
			WHERE o.custName <> 'Bob'
			GROUP BY ROLLUP(o.prodName)
			ORDER BY o.prodName NULLS LAST`
	}
	sameRows(t, mustRows(t, db, q("AGGREGATE(o.rev)")), mustRows(t, db, q("EVAL(o.rev AT (VISIBLE))")),
		"AGGREGATE(m) = EVAL(m AT (VISIBLE))")
}

func TestAllThenSetEqualsSet(t *testing.T) {
	db := open(t)
	q := func(mods string) string {
		return `
			SELECT prodName, rev AT (` + mods + `) AS v
			FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
			GROUP BY prodName ORDER BY prodName`
	}
	// ALL prodName then SET prodName = 'Happy' ≡ SET prodName = 'Happy'.
	sameRows(t, mustRows(t, db, q("ALL prodName SET prodName = 'Happy'")),
		mustRows(t, db, q("SET prodName = 'Happy'")), "ALL-then-SET")
	for _, row := range mustRows(t, db, q("SET prodName = 'Happy'")) {
		if row[1] != "17" {
			t.Errorf("SET prodName='Happy' should yield 17, got %v", row)
		}
	}
}

func TestBareAllRemovesEverything(t *testing.T) {
	db := open(t)
	got := mustRows(t, db, `
		SELECT prodName, rev AT (ALL) AS total
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		WHERE custName <> 'Bob'
		GROUP BY prodName ORDER BY prodName`)
	for _, row := range got {
		if row[1] != "25" {
			t.Errorf("AT (ALL) must see the whole base table (25), got %v", row)
		}
	}
}

func TestCurrentOfUnconstrainedDimensionIsNull(t *testing.T) {
	db := open(t)
	// custName is not constrained by the context, so CURRENT custName is
	// NULL and the SET term matches no row → measure over empty set → NULL.
	got := mustRows(t, db, `
		SELECT prodName, rev AT (SET custName = CURRENT custName) AS v
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		GROUP BY prodName ORDER BY prodName`)
	for _, row := range got {
		if row[1] != "NULL" {
			t.Errorf("CURRENT of unconstrained dim should be NULL → empty context, got %v", row)
		}
	}
}

func TestAtWhereReplacesContext(t *testing.T) {
	db := open(t)
	got := mustRows(t, db, `
		SELECT prodName, rev AT (WHERE custName = 'Bob') AS bobTotal
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		GROUP BY prodName ORDER BY prodName`)
	// Context replaced entirely: Bob's total (5+4=9) in every group.
	for _, row := range got {
		if row[1] != "9" {
			t.Errorf("AT (WHERE ...) should replace the context, got %v", row)
		}
	}
}

// ---------------------------------------------------------------------------
// E20: strategy equivalence

func TestStrategyEquivalence(t *testing.T) {
	queries := []string{
		`SELECT prodName, AGGREGATE(margin) AS m
		 FROM (SELECT *, (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
		       FROM Orders) AS o
		 GROUP BY prodName ORDER BY prodName`,
		`SELECT prodName, rev, rev / rev AT (ALL prodName) AS share
		 FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		 GROUP BY prodName ORDER BY prodName`,
		`SELECT o.prodName, AGGREGATE(o.rev) AS ragg, o.rev AS r
		 FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		 WHERE o.custName <> 'cust0001'
		 GROUP BY ROLLUP(o.prodName)
		 ORDER BY o.prodName NULLS LAST`,
		`SELECT YEAR(orderDate) AS y, rev AT (SET y = CURRENT y - 1) AS lastYear
		 FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		 GROUP BY YEAR(orderDate) ORDER BY y`,
	}
	cfg := datagen.Config{Seed: 3, Customers: 30, Products: 8, Orders: 2000, Years: 3, NullProductFraction: 0.05}
	load := func(strategy msql.Strategy) *msql.DB {
		db := msql.Open()
		db.MustExec(datagen.SetupSQL)
		ds := datagen.Generate(cfg)
		if err := db.InsertRows("Customers", ds.Customers); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("Orders", ds.Orders); err != nil {
			t.Fatal(err)
		}
		db.SetStrategy(strategy)
		return db
	}
	inline := load(msql.StrategyDefault)
	memo := load(msql.StrategyMemo)
	naive := load(msql.StrategyNaive)
	for qi, q := range queries {
		a := mustRows(t, inline, q)
		b := mustRows(t, memo, q)
		c := mustRows(t, naive, q)
		sameRows(t, a, b, "inline vs memo, query "+string(rune('A'+qi)))
		sameRows(t, b, c, "memo vs naive, query "+string(rune('A'+qi)))
	}
}

func TestExpansionEquivalenceOnSyntheticData(t *testing.T) {
	db := msql.Open()
	db.MustExec(datagen.SetupSQL)
	ds := datagen.Generate(datagen.Config{Seed: 5, Customers: 20, Products: 6, Orders: 500, Years: 2})
	if err := db.InsertRows("Customers", ds.Customers); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("Orders", ds.Orders); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE VIEW EO AS
		SELECT *, SUM(revenue) AS MEASURE rev,
		       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
		FROM Orders`)
	queries := []string{
		`SELECT prodName, AGGREGATE(margin) AS m FROM EO GROUP BY prodName ORDER BY prodName`,
		`SELECT prodName, rev / rev AT (ALL prodName) AS share FROM EO GROUP BY prodName ORDER BY prodName`,
		`SELECT prodName, YEAR(orderDate) AS y,
		        rev / rev AT (SET y = CURRENT y - 1) AS ratio
		 FROM EO GROUP BY prodName, YEAR(orderDate) ORDER BY prodName, y`,
		`SELECT custName, AGGREGATE(rev) AS r FROM EO
		 WHERE prodName = 'prod001' GROUP BY custName ORDER BY custName`,
	}
	for _, q := range queries {
		expanded, err := db.Expand(q)
		if err != nil {
			t.Fatalf("Expand(%s): %v", q, err)
		}
		sameRows(t, mustRows(t, db, q), mustRows(t, db, expanded), "expansion of "+q)
	}
}

// ---------------------------------------------------------------------------
// E15: the security/hologram property (§5.5)

// A view with measures reveals only information distinguishable by its
// dimension columns: two base tables whose rows cannot be separated by
// the projected dimensions answer every measure query identically.
func TestHologramProperty(t *testing.T) {
	build := func(extraRows string) *msql.DB {
		db := msql.Open()
		db.MustExec(`
			CREATE TABLE Secret (a VARCHAR, b INTEGER, c VARCHAR, d INTEGER);
			INSERT INTO Secret VALUES
			  ('x', 1, 'hidden1', 10),
			  ('x', 2, 'hidden2', 20),
			  ('y', 1, 'hidden3', 30)` + extraRows + `;
			CREATE VIEW Exposed AS
			SELECT a, b, SUM(d) AS MEASURE m, COUNT(*) AS MEASURE n
			FROM Secret;
		`)
		return db
	}
	// The second database swaps the hidden c values and splits one row
	// into two half-sized rows with the same (a, b): indistinguishable
	// через the (a, b) dimensions for SUM, but NOT for COUNT — so we only
	// compare SUM-based answers, plus show COUNT changes (the hologram
	// has finite resolution: dimension-distinguishable content only).
	db1 := build("")
	db2 := msql.Open()
	db2.MustExec(`
		CREATE TABLE Secret (a VARCHAR, b INTEGER, c VARCHAR, d INTEGER);
		INSERT INTO Secret VALUES
		  ('x', 1, 'swapped', 4),
		  ('x', 1, 'swapped', 6),
		  ('x', 2, 'other', 20),
		  ('y', 1, 'other', 30);
		CREATE VIEW Exposed AS
		SELECT a, b, SUM(d) AS MEASURE m, COUNT(*) AS MEASURE n
		FROM Secret;
	`)
	probes := []string{
		`SELECT a, AGGREGATE(m) AS v FROM Exposed GROUP BY a ORDER BY a`,
		`SELECT b, AGGREGATE(m) AS v FROM Exposed GROUP BY b ORDER BY b`,
		`SELECT a, b, AGGREGATE(m) AS v FROM Exposed GROUP BY a, b ORDER BY a, b`,
		`SELECT a, m AT (ALL a) AS v FROM Exposed GROUP BY a ORDER BY a`,
		`SELECT a, m AT (SET b = 1) AS v FROM Exposed GROUP BY a ORDER BY a`,
		`SELECT AGGREGATE(m) AS v FROM Exposed`,
	}
	for _, p := range probes {
		sameRows(t, mustRows(t, db1, p), mustRows(t, db2, p), "hologram probe "+p)
	}
	// The hidden column c is simply not addressable.
	_, err := db1.Query(`SELECT a, m AT (SET c = 'hidden1') AS v FROM Exposed GROUP BY a`)
	if err == nil {
		t.Error("constraining a hidden column must fail")
	}
}

// ---------------------------------------------------------------------------
// E17: semi-additive and NULL-dimension behaviour

func TestSemiAdditiveInventory(t *testing.T) {
	db := msql.Open()
	db.MustExec(`
		CREATE TABLE Inv (prod VARCHAR, wh VARCHAR, snapDate DATE, onHand INTEGER);
		INSERT INTO Inv VALUES
		  ('p', 'e', DATE '2024-01-01', 10),
		  ('p', 'e', DATE '2024-02-01', 4),
		  ('p', 'w', DATE '2024-01-01', 7),
		  ('q', 'w', DATE '2024-01-01', 1);
		CREATE VIEW LastSnap AS
		SELECT prod, wh, ARG_MAX(onHand, snapDate) AS lastQty
		FROM Inv GROUP BY prod, wh;
		CREATE VIEW InvM AS SELECT *, SUM(lastQty) AS MEASURE onHand FROM LastSnap;
	`)
	got := mustRows(t, db, `SELECT prod, AGGREGATE(onHand) AS oh FROM InvM GROUP BY prod ORDER BY prod`)
	sameRows(t, got, [][]string{{"p", "11"}, {"q", "1"}}, "semi-additive rollup")
	got = mustRows(t, db, `SELECT AGGREGATE(onHand) AS oh FROM InvM`)
	sameRows(t, got, [][]string{{"12"}}, "semi-additive grand total")
}

func TestNullDimensionGrouping(t *testing.T) {
	db := msql.Open()
	db.MustExec(`
		CREATE TABLE T (k VARCHAR, v INTEGER);
		INSERT INTO T VALUES ('a', 1), (NULL, 2), (NULL, 3);
	`)
	// The NULL group's measure must cover exactly the NULL rows —
	// the paper's footnote about IS NOT DISTINCT FROM.
	got := mustRows(t, db, `
		SELECT k, AGGREGATE(s) AS v
		FROM (SELECT *, SUM(v) AS MEASURE s FROM T) AS o
		GROUP BY k ORDER BY k NULLS FIRST`)
	sameRows(t, got, [][]string{{"NULL", "5"}, {"a", "1"}}, "NULL dimension group")
}

func TestMeasureOverEmptyTable(t *testing.T) {
	db := msql.Open()
	db.MustExec(`
		CREATE TABLE Empty (k VARCHAR, v INTEGER);
		CREATE VIEW EM AS SELECT *, SUM(v) AS MEASURE s, COUNT(*) AS MEASURE c FROM Empty;
	`)
	// "How can I evaluate a measure on a table that has no rows?" (§6.5):
	// the global aggregate returns SUM NULL / COUNT 0.
	got := mustRows(t, db, `SELECT AGGREGATE(s) AS s, AGGREGATE(c) AS c FROM EM`)
	sameRows(t, got, [][]string{{"NULL", "0"}}, "measure over empty table")
}

// TestStringComparedWithDateIsADate: a string literal next to a DATE
// operand reads as the DATE it spells, on either side of a comparison,
// in BETWEEN, in an IN list and in a measure's AT (WHERE ...); one that
// spells no date is a bind error that names it.
func TestStringComparedWithDateIsADate(t *testing.T) {
	db := open(t)
	for _, tc := range []struct{ where, want string }{
		{`orderDate = '2023-11-28'`, "1"},
		{`'2023-11-28' <> orderDate`, "4"},
		{`orderDate < '2023-11-27'`, "2"},
		{`orderDate <= '2023-11-27'`, "3"},
		{`'2023-11-28' > orderDate`, "3"},
		{`orderDate >= '2023/11/28'`, "2"},
		{`orderDate BETWEEN '2023-01-01' AND '2023-12-31'`, "3"},
		{`orderDate IN ('2024-11-28', DATE '2022-11-27')`, "2"},
	} {
		got := mustRows(t, db, `SELECT COUNT(*) AS n FROM Orders WHERE `+tc.where)
		sameRows(t, got, [][]string{{tc.want}}, tc.where)
	}
	got := mustRows(t, db, `SELECT prodName, rev AT (WHERE orderDate >= '2023-01-01') AS r
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o GROUP BY prodName ORDER BY prodName`)
	sameRows(t, got, [][]string{{"Acme", "21"}, {"Happy", "21"}, {"Whizz", "21"}}, "AT (WHERE orderDate >= '2023-01-01')")

	for _, where := range []string{`orderDate = '2023-13-01'`, `orderDate IN ('soon')`, `orderDate BETWEEN 'a' AND '2024-01-01'`} {
		_, err := db.Query(`SELECT COUNT(*) FROM Orders WHERE ` + where)
		var ee *exec.Error
		if !errors.As(err, &ee) || ee.Code != exec.CodeBind || !strings.Contains(err.Error(), "invalid DATE literal") {
			t.Errorf("%s: got %v, want a bind error naming the string", where, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Wide tables: measures defined over a join keep their grain

func TestWideTableJoinGrain(t *testing.T) {
	db := open(t)
	db.MustExec(`
		CREATE VIEW Wide AS
		SELECT o.prodName, o.custName, o.revenue, c.custAge,
		       SUM(o.revenue) AS MEASURE rev
		FROM Orders AS o JOIN Customers AS c USING (custName);
	`)
	got := mustRows(t, db, `
		SELECT prodName, AGGREGATE(rev) AS r FROM Wide GROUP BY prodName ORDER BY prodName`)
	sameRows(t, got, [][]string{{"Acme", "5"}, {"Happy", "17"}, {"Whizz", "3"}}, "wide table measure")
	// Grouping by the customer side of the join still works: custAge is a
	// dimension of the wide table.
	got = mustRows(t, db, `
		SELECT custAge, AGGREGATE(rev) AS r FROM Wide GROUP BY custAge ORDER BY custAge`)
	sameRows(t, got, [][]string{{"17", "3"}, {"23", "13"}, {"41", "9"}}, "wide table by age")
}

// ---------------------------------------------------------------------------
// Error behaviour

func TestMeasureErrors(t *testing.T) {
	db := open(t)
	cases := []struct {
		sql, needle string
	}{
		{`SELECT AVG(profitMargin) FROM EnhancedOrders GROUP BY prodName`, "AGGREGATE"},
		{`SELECT AGGREGATE(revenue) FROM Orders GROUP BY prodName`, "measure"},
		{`SELECT revenue AT (ALL) FROM Orders`, "measure"},
		{`SELECT AGGREGATE(profitMargin, 2) FROM EnhancedOrders GROUP BY prodName`, "one measure argument"},
		{`SELECT prodName, profitMargin AT (SET bogus = 1) AS x FROM EnhancedOrders GROUP BY prodName`, "unknown"},
		{`SELECT prodName, profitMargin AT (ALL bogus) AS x FROM EnhancedOrders GROUP BY prodName`, "unknown dimension"},
		{`SELECT prodName FROM EnhancedOrders GROUP BY profitMargin`, "measure"},
		{`SELECT *, SUM(revenue) + cost AS MEASURE bad FROM Orders`, "aggregatable"},
		{`SELECT *, m2 + 1 AS MEASURE m2 FROM Orders`, "recursive"},
		{`SELECT profitMargin FROM EnhancedOrders UNION SELECT 1.0`, "set operations"},
	}
	for _, c := range cases {
		_, err := db.Query(c.sql)
		if err == nil {
			err = db.Exec(c.sql)
		}
		if err == nil {
			t.Errorf("%q: expected an error mentioning %q", c.sql, c.needle)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.needle)) {
			t.Errorf("%q: error %q does not mention %q", c.sql, err, c.needle)
		}
	}
}

func TestMeasuresInHavingAndOrderBy(t *testing.T) {
	db := open(t)
	got := mustRows(t, db, `
		SELECT prodName, AGGREGATE(rev) AS r
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		GROUP BY prodName
		HAVING AGGREGATE(rev) > 4
		ORDER BY AGGREGATE(rev) DESC`)
	sameRows(t, got, [][]string{{"Happy", "17"}, {"Acme", "5"}}, "measure in HAVING/ORDER BY")
}

func TestRowContextMeasureInSelect(t *testing.T) {
	db := open(t)
	// Non-aggregate query: bare-ish measure in an expression evaluates in
	// row context (all dimensions bound to the current row).
	got := mustRows(t, db, `
		SELECT prodName, revenue, EVAL(rev) AS rowRev
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		WHERE prodName = 'Happy'
		ORDER BY orderDate`)
	// Each row's context binds every dimension → exactly that row.
	want := [][]string{{"Happy", "4", "4"}, {"Happy", "6", "6"}, {"Happy", "7", "7"}}
	sameRows(t, got, want, "row-context measure")
}

func TestPaperDataLoads(t *testing.T) {
	db := msql.Open()
	if err := db.Exec(paperdata.All); err != nil {
		t.Fatal(err)
	}
	got := mustRows(t, db, `SELECT COUNT(*) FROM Orders`)
	sameRows(t, got, [][]string{{"5"}}, "orders count")
	got = mustRows(t, db, `SELECT COUNT(*) FROM Customers`)
	sameRows(t, got, [][]string{{"3"}}, "customers count")
}

// Executor statistics prove what each strategy actually does: with
// memoization a measure subquery is evaluated once per distinct context;
// without it, once per output row.
func TestMemoizationStats(t *testing.T) {
	q := `
		SELECT prodName, rev AT (ALL) AS total
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		GROUP BY prodName`
	memo := open(t)
	memo.SetStrategy(msql.StrategyMemo)
	if _, err := memo.Query(q); err != nil {
		t.Fatal(err)
	}
	ms := memo.LastStats()
	// AT (ALL) has one distinct (empty) context → exactly 1 evaluation,
	// with a cache hit for each of the remaining product groups.
	if ms.SubqueryEvals != 1 {
		t.Errorf("memo evals = %d, want 1", ms.SubqueryEvals)
	}
	if ms.SubqueryCacheHits != 2 {
		t.Errorf("memo cache hits = %d, want 2 (3 products, 1 miss)", ms.SubqueryCacheHits)
	}

	naive := open(t)
	naive.SetStrategy(msql.StrategyNaive)
	if _, err := naive.Query(q); err != nil {
		t.Fatal(err)
	}
	ns := naive.LastStats()
	if ns.SubqueryEvals != 3 {
		t.Errorf("naive evals = %d, want 3 (one per group)", ns.SubqueryEvals)
	}
	if ns.SubqueryCacheHits != 0 {
		t.Errorf("naive cache hits = %d, want 0", ns.SubqueryCacheHits)
	}

	// The default strategy inlines group-partition contexts entirely: the
	// canonical AGGREGATE query runs with zero subquery evaluations.
	inline := open(t)
	if _, err := inline.Query(`
		SELECT prodName, AGGREGATE(rev) AS r
		FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
		GROUP BY prodName`); err != nil {
		t.Fatal(err)
	}
	if is := inline.LastStats(); is.SubqueryEvals != 0 {
		t.Errorf("inline evals = %d, want 0", is.SubqueryEvals)
	}
}
