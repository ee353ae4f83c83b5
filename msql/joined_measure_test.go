package msql_test

// A measure reached through a join is linked to its group through the
// group's visible rows (paper §3.6): the measure reads the base rows the
// group's rows of the query's FROM + WHERE came from. Over a stored
// table these are the base rows whose whole dimension tuple is among the
// group's joined tuples. These tests hold the engine to that meaning
// with an oracle written in plain SQL — no measure, no AT — and pin how
// a link reads its group's rows: through the outer Aggregate's fold, or
// from its own run of the FROM tree.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/measures-sql/msql/msql"
)

// joinedDB loads a small random Orders / Customers pair with NULL
// names, ages, dates and revenues, duplicate customer names (so the link
// matches whole tuples, not names) and orders of unknown customers, plus
// a measure view over each table.
func joinedDB(t testing.TB, seed int64) *msql.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := msql.Open()
	db.MustExec(`CREATE TABLE Customers (custName VARCHAR, custAge INTEGER);
		CREATE TABLE Orders (custName VARCHAR, orderDate DATE, revenue DOUBLE)`)
	name := func(i int) string {
		if i < 0 {
			return "NULL"
		}
		return fmt.Sprintf("'c%d'", i)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO Customers VALUES ")
	for i := 0; i < 16; i++ {
		n := i % 13 // c0..c2 twice
		if i%9 == 8 {
			n = -1
		}
		age := fmt.Sprint(10 + rng.Intn(60))
		if rng.Intn(8) == 0 {
			age = "NULL"
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%s, %s)", name(n), age)
	}
	db.MustExec(sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO Orders VALUES ")
	for i := 0; i < 200; i++ {
		n := rng.Intn(15) // c13, c14: no such customer
		if rng.Intn(10) == 0 {
			n = -1
		}
		date := fmt.Sprintf("DATE '%d-%02d-%02d'", 2021+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28))
		if rng.Intn(15) == 0 {
			date = "NULL"
		}
		rev := fmt.Sprint(rng.Float64()*100 + 1/float64(i+3))
		if rng.Intn(12) == 0 {
			rev = "NULL"
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%s, %s, %s)", name(n), date, rev)
	}
	db.MustExec(sb.String())
	db.MustExec(`CREATE VIEW EC AS SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers`)
	db.MustExec(`CREATE VIEW OV AS SELECT custName, orderDate, revenue, SUM(revenue) AS MEASURE rev FROM Orders`)
	return db
}

// joinConj is one WHERE conjunct over Orders o ⋈ Customers c, rendered
// for given aliases; onlyC marks a conjunct over c alone, which VISIBLE
// maps onto the measure's dimensions.
type joinConj struct {
	render func(o, c string) string
	onlyC  bool
}

func randomJoinConj(rng *rand.Rand) joinConj {
	a, b, k, y := 15+rng.Intn(40), rng.Intn(100), rng.Intn(15), 2021+rng.Intn(4)
	switch rng.Intn(6) {
	case 0:
		return joinConj{func(_, c string) string { return fmt.Sprintf("%s.custAge >= %d", c, a) }, true}
	case 1:
		return joinConj{func(o, _ string) string { return fmt.Sprintf("%s.revenue > %d", o, b) }, false}
	case 2:
		return joinConj{func(_, c string) string { return fmt.Sprintf("%s.custName <> 'c%d'", c, k) }, true}
	case 3:
		return joinConj{func(o, c string) string {
			return fmt.Sprintf("(%s.custAge IS NULL OR %s.revenue < %d)", c, o, b)
		}, false}
	case 4:
		return joinConj{func(o, _ string) string { return fmt.Sprintf("YEAR(%s.orderDate) <> %d", o, y) }, false}
	default:
		return joinConj{func(_, c string) string { return fmt.Sprintf("%s.custAge BETWEEN %d AND %d", c, a, a+25) }, true}
	}
}

func renderConjs(conjs []joinConj, o, c string, onlyC bool) []string {
	var out []string
	for _, cj := range conjs {
		if !onlyC || cj.onlyC {
			out = append(out, cj.render(o, c))
		}
	}
	return out
}

// joinedCase is one measure query and its hand-expanded plain SQL.
type joinedCase struct{ sql, oracle string }

// joinedCases renders, for one random predicate, the bare measure, AT
// (VISIBLE) and AGGREGATE under GROUP BY YEAR(...) and its ROLLUP, and
// a single-table VISIBLE whose WHERE holds a conjunct (an IN subquery)
// that maps to no dimension.
func joinedCases(rng *rand.Rand) []joinedCase {
	conjs := make([]joinConj, 1+rng.Intn(3))
	for i := range conjs {
		conjs[i] = randomJoinConj(rng)
	}
	where := strings.Join(renderConjs(conjs, "o", "c", false), " AND ")
	var out []joinedCase
	for _, group := range []string{"YEAR(o.orderDate)", "ROLLUP(YEAR(o.orderDate))"} {
		for _, shape := range []string{"c.avgAge", "c.avgAge AT (VISIBLE)", "AGGREGATE(c.avgAge)"} {
			sql := fmt.Sprintf(`SELECT YEAR(o.orderDate) AS y, GROUPING(YEAR(o.orderDate)) AS g, COUNT(*) AS n, %s AS m
				FROM Orders AS o JOIN EC AS c USING (custName) WHERE %s GROUP BY %s ORDER BY g, y`, shape, where, group)
			// The context: the customer's tuple is among the group's
			// FROM + WHERE rows, matched IS NOT DISTINCT FROM; VISIBLE
			// adds the WHERE conjuncts over c alone.
			ctx := []string{fmt.Sprintf(`EXISTS (SELECT 1 FROM Orders AS o JOIN Customers AS c USING (custName)
				WHERE %s AND (t.g <> 0 OR YEAR(o.orderDate) IS NOT DISTINCT FROM t.y)
				AND c.custName IS NOT DISTINCT FROM c2.custName AND c.custAge IS NOT DISTINCT FROM c2.custAge)`, where)}
			if shape != "c.avgAge" {
				ctx = append(ctx, renderConjs(conjs, "o", "c2", true)...)
			}
			oracle := fmt.Sprintf(`SELECT t.y, t.g, t.n, (SELECT AVG(c2.custAge) FROM Customers AS c2 WHERE %s) AS m
				FROM (SELECT YEAR(o.orderDate) AS y, GROUPING(YEAR(o.orderDate)) AS g, COUNT(*) AS n
				      FROM Orders AS o JOIN Customers AS c USING (custName) WHERE %s GROUP BY %s) AS t
				ORDER BY t.g, t.y`, strings.Join(ctx, " AND "), where, group)
			out = append(out, joinedCase{sql, oracle})
		}
	}
	b, a := 50+rng.Intn(50), 15+rng.Intn(40)
	single := func(o string) string {
		return fmt.Sprintf("%s.revenue > %d AND %s.custName IN (SELECT custName FROM Customers WHERE custAge >= %d)", o, b, o, a)
	}
	out = append(out, joinedCase{
		sql: fmt.Sprintf(`SELECT custName AS k, COUNT(*) AS n, rev AT (VISIBLE) AS m
			FROM OV AS o WHERE %s GROUP BY custName ORDER BY k`, single("o")),
		oracle: fmt.Sprintf(`SELECT t.k, t.n, (SELECT SUM(o2.revenue) FROM Orders AS o2
				WHERE o2.custName IS NOT DISTINCT FROM t.k AND o2.revenue > %d
				AND EXISTS (SELECT 1 FROM Orders AS o3 WHERE %s AND o3.custName IS NOT DISTINCT FROM t.k
				AND o3.custName IS NOT DISTINCT FROM o2.custName AND o3.orderDate IS NOT DISTINCT FROM o2.orderDate
				AND o3.revenue IS NOT DISTINCT FROM o2.revenue)) AS m
			FROM (SELECT custName AS k, COUNT(*) AS n FROM Orders AS o WHERE %s GROUP BY custName) AS t
			ORDER BY t.k`, b, single("o3"), single("o")),
	})
	return out
}

// TestJoinedMeasureMatchesPlainSQL: over 50 random predicates, every
// shape is bit-identical to its plain-SQL expansion under the memo and
// naive strategies, with 1 and 4 workers, rollups off and on.
func TestJoinedMeasureMatchesPlainSQL(t *testing.T) {
	const seed = 3006
	rng := rand.New(rand.NewSource(seed))
	oracleDB := joinedDB(t, seed)
	oracleDB.SetWorkers(1)
	dbs := map[string]*msql.DB{"memo": joinedDB(t, seed), "naive": joinedDB(t, seed)}
	dbs["memo"].SetStrategy(msql.StrategyMemo)
	dbs["naive"].SetStrategy(msql.StrategyNaive)
	var cases []joinedCase
	for i := 0; i < 50; i++ {
		cases = append(cases, joinedCases(rng)...)
	}
	wants := make([]string, len(cases))
	valued := 0
	for i, tc := range cases {
		oracle, err := oracleDB.Query(tc.oracle)
		if err != nil {
			t.Fatalf("oracle: %v\n%s", err, tc.oracle)
		}
		wants[i] = strings.Join(exactRows(oracle), "\n")
		if strings.Contains(wants[i], "0x") { // a non-NULL DOUBLE
			valued++
		}
	}
	if valued < len(cases)*9/10 {
		t.Fatalf("only %d of %d plain-SQL results hold a measure value", valued, len(cases))
	}
	ctx := context.Background()
	for _, rollups := range []bool{false, true} {
		for _, name := range []string{"memo", "naive"} {
			db := dbs[name]
			db.SetRollups(rollups)
			for i, tc := range cases {
				for _, workers := range []int{1, 4} {
					got, err := db.QueryContext(ctx, tc.sql, msql.WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s w%d rollups=%v: %v\n%s", name, workers, rollups, err, tc.sql)
					}
					if have := strings.Join(exactRows(got), "\n"); have != wants[i] {
						t.Fatalf("%s w%d rollups=%v:\n%s\ngot:\n%s\nplain SQL:\n%s\nwant:\n%s",
							name, workers, rollups, tc.sql, have, tc.oracle, wants[i])
					}
				}
			}
		}
	}
}

// listing9 is the paper's Listing 9 grouped by product, over the paper's
// data.
const listing9 = `WITH EC AS (SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers)
	SELECT o.prodName, COUNT(*) AS orderCount, c.avgAge AS avgAge, c.avgAge AT (VISIBLE) AS visibleAvgAge
	FROM Orders AS o JOIN EC AS c USING (custName) %s GROUP BY o.prodName ORDER BY o.prodName`

// TestContextLinkBase pins how a context link reads its group's rows:
// by position for Listing 9, a DOUBLE dimension, a volatile WHERE, a
// grouped join in a correlated subquery and a base that is no stored
// table. Under the memo strategies the outer Aggregate folds each
// group's positions and the measure reads them through its output;
// under the naive strategy each read folds them from its own run of the
// FROM tree. Every plan gives the naive strategy's rows.
func TestContextLinkBase(t *testing.T) {
	naive := open(t)
	naive.SetStrategy(msql.StrategyNaive)
	const doubleDim = `WITH EC AS (SELECT custName, custAge, custAge * 1.5 AS ageD, AVG(custAge) AS MEASURE avgAge FROM Customers)
	SELECT o.prodName, COUNT(*) AS orderCount, c.avgAge AS avgAge, c.avgAge AT (VISIBLE) AS visibleAvgAge
	FROM Orders AS o JOIN EC AS c USING (custName) WHERE c.custAge >= 18 GROUP BY o.prodName ORDER BY o.prodName`
	for _, tc := range []struct{ name, sql string }{
		{"listing-9", fmt.Sprintf(listing9, "WHERE c.custAge >= 18")},
		{"double-dimension", doubleDim},
		// RANDOM() < 2 keeps every row, but the plan cannot know that.
		{"volatile-where", fmt.Sprintf(listing9, "WHERE c.custAge >= 18 AND RANDOM() < 2")},
		// The grouped join's WHERE reads the enclosing row, so its rows
		// change from one outer row to the next.
		{"correlated-subquery", `WITH EC AS (SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers)
			SELECT p.prodName, (SELECT MAX(x.a) FROM (SELECT YEAR(o.orderDate) AS y, c.avgAge AS a
				FROM Orders AS o JOIN EC AS c USING (custName) WHERE o.prodName = p.prodName
				GROUP BY YEAR(o.orderDate)) AS x) AS maxAvgAge
			FROM (SELECT DISTINCT prodName FROM Orders) AS p ORDER BY p.prodName`},
		{"distinct-base", strings.Replace(fmt.Sprintf(listing9, ""), "FROM Customers",
			"FROM (SELECT DISTINCT custName, custAge FROM Customers)", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := naive.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, strategy := range []msql.Strategy{msql.StrategyDefault, msql.StrategyMemo, msql.StrategyNaive} {
				db := open(t)
				db.SetStrategy(strategy)
				txt, err := db.Explain(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(txt, "[context link by position]") {
					t.Fatalf("strategy %d: no link by position:\n%s", strategy, txt)
				}
				// The naive strategy is the paper's literal per-row
				// rewrite: every read runs the FROM tree itself.
				if got, want := strings.Contains(txt, "[the group's positions]"), strategy == msql.StrategyNaive; got != want {
					t.Fatalf("strategy %d: the read folds its own positions: %v, want %v:\n%s", strategy, got, want, txt)
				}
				got, err := db.Query(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := strings.Join(exactRows(got), "\n"), strings.Join(exactRows(want), "\n"); g != w {
					t.Fatalf("strategy %d:\n%s\nnaive:\n%s", strategy, g, w)
				}
			}
		})
	}
	// A base that is no stored table is made once per execution: the
	// naive strategy runs the FROM tree once for the Aggregate and once
	// for each of the four groups' reads, and reads C's 6 rows once.
	db := linkDB(t, false)
	const q = `SELECT o.prodName, c.cnt AT (VISIBLE)
		FROM O AS o LEFT JOIN (SELECT *, COUNT(*) AS MEASURE cnt FROM (SELECT DISTINCT custName, custAge FROM C)) AS c USING (custName)
		GROUP BY o.prodName`
	for strategy, scanned := range map[msql.Strategy]int64{msql.StrategyMemo: 7 + 6, msql.StrategyNaive: 5*7 + 6} {
		db.SetStrategy(strategy)
		db.MustQuery(q)
		if st := db.LastStats(); st.RowsScanned != scanned {
			t.Fatalf("strategy %d: %d rows scanned, want %d", strategy, st.RowsScanned, scanned)
		}
	}
}

// TestContextLinkBaseConcurrentExecutions runs one cached plan of
// Listing 9, over a base that is no stored table, from four goroutines
// at once, each execution making its own base rows and folding its own
// position sets, with four workers each; every result is the one a
// serial execution gives for its binding.
func TestContextLinkBaseConcurrentExecutions(t *testing.T) {
	db := joinedDB(t, 7)
	db.SetStrategy(msql.StrategyMemo)
	const q = `SELECT YEAR(o.orderDate) AS y, COUNT(*) AS n, c.avgAge AS a, c.avgAge AT (VISIBLE) AS v
		FROM Orders AS o JOIN (SELECT *, AVG(custAge) AS MEASURE avgAge FROM (SELECT DISTINCT custName, custAge FROM Customers)) AS c
		USING (custName) WHERE o.revenue > $1 AND c.custAge >= 20
		GROUP BY YEAR(o.orderDate) ORDER BY y`
	if txt, err := db.Explain(strings.ReplaceAll(q, "$1", "0")); err != nil || !strings.Contains(txt, "[context link by position]") {
		t.Fatalf("the link does not read by position (err %v):\n%s", err, txt)
	}
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// More bindings than the result memo keeps, so executions run.
	const bindings = 24
	want := make([]string, bindings)
	for b := range want {
		res, err := db.QueryContext(context.Background(), strings.ReplaceAll(q, "$1", fmt.Sprint(b*4)), msql.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want[b] = strings.Join(exactRows(res), "\n")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < bindings; i++ {
				b := (i + g*5) % bindings
				res, err := stmt.QueryContext(context.Background(), []any{b * 4}, msql.WithWorkers(4))
				if err != nil {
					t.Errorf("goroutine %d binding %d: %v", g, b, err)
					return
				}
				if got := strings.Join(exactRows(res), "\n"); got != want[b] {
					t.Errorf("goroutine %d binding %d:\n%s\nserial:\n%s", g, b, got, want[b])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
