package msql_test

// A context link by position: a measure reached through a join reads
// exactly the base rows its group's joined rows came from. These tests
// hold more join shapes to the plain-SQL meaning of TestJoinedMeasure-
// MatchesPlainSQL, hold every shape of measure relation to that one
// meaning (a NULL-padded row adds no base row; a base row counts once,
// whatever its values; a volatile base is evaluated once), and race a
// reader against TRUNCATE and refill.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/measures-sql/msql/msql"
)

// joinShape is one FROM clause over Orders o and a measure relation c
// with measures avgAge and cnt, and its plain-SQL forms: from with Customers in
// place of the measure relation, exists the join whose rows a base row
// must be among (an inner join where the measure side may be NULL-padded,
// which adds no base row), and base the measure's base rows.
type joinShape struct {
	name, from, plain, exists, base string
}

var joinShapes = []joinShape{
	{name: "left-nullable", from: "Orders AS o LEFT JOIN ECN AS c USING (custName)",
		plain:  "Orders AS o LEFT JOIN Customers AS c USING (custName)",
		exists: "Orders AS o JOIN Customers AS c USING (custName)", base: "Customers"},
	{name: "right-nullable", from: "ECN AS c RIGHT JOIN Orders AS o USING (custName)",
		plain:  "Customers AS c RIGHT JOIN Orders AS o USING (custName)",
		exists: "Customers AS c JOIN Orders AS o USING (custName)", base: "Customers"},
	{name: "left-preserved", from: "ECN AS c LEFT JOIN Orders AS o USING (custName)",
		plain:  "Customers AS c LEFT JOIN Orders AS o USING (custName)",
		exists: "Customers AS c LEFT JOIN Orders AS o USING (custName)", base: "Customers"},
	{name: "right-preserved", from: "Orders AS o RIGHT JOIN ECN AS c USING (custName)",
		plain:  "Orders AS o RIGHT JOIN Customers AS c USING (custName)",
		exists: "Orders AS o RIGHT JOIN Customers AS c USING (custName)", base: "Customers"},
	// Customers with a shared name fan each joined row out again.
	{name: "three-tables", from: "Orders AS o JOIN ECN AS c USING (custName) JOIN Customers AS k ON k.custName = c.custName",
		plain:  "Orders AS o JOIN Customers AS c USING (custName) JOIN Customers AS k ON k.custName = c.custName",
		exists: "Orders AS o JOIN Customers AS c USING (custName) JOIN Customers AS k ON k.custName = c.custName",
		base:   "Customers"},
	{name: "twins", from: "Orders AS o JOIN ECN AS c USING (custName)",
		plain:  "Orders AS o JOIN Customers AS c USING (custName)",
		exists: "Orders AS o JOIN Customers AS c USING (custName)", base: "Customers"},
	// A view over a view bakes its WHERE clause into the measure.
	{name: "view-over-view", from: "Orders AS o JOIN ECO AS c USING (custName)",
		plain:  "Orders AS o JOIN (SELECT * FROM Customers WHERE custAge > 25) AS c USING (custName)",
		exists: "Orders AS o JOIN (SELECT * FROM Customers WHERE custAge > 25) AS c USING (custName)",
		base:   "(SELECT * FROM Customers WHERE custAge > 25)"},
	// A DISTINCT between the base rows and the join merges rows, and
	// the merged row stands for all of them; a DOUBLE dimension.
	{name: "distinct-in-from", from: "Orders AS o JOIN (SELECT DISTINCT * FROM ECN) AS c USING (custName)",
		plain:  "Orders AS o JOIN (SELECT DISTINCT * FROM Customers) AS c USING (custName)",
		exists: "Orders AS o JOIN Customers AS c USING (custName)", base: "Customers"},
	{name: "double-dimension", from: "Orders AS o JOIN ECD AS c USING (custName)",
		plain:  "Orders AS o JOIN Customers AS c USING (custName)",
		exists: "Orders AS o JOIN Customers AS c USING (custName)", base: "Customers"},
}

// shapeDB is joinedDB plus the views the shapes read and a customer
// whose dimensions are all NULL, which a NULL-padded row must not bring
// into a context; twins adds two identical customer rows for the orders
// of c13.
func shapeDB(t testing.TB, seed int64, twins bool) *msql.DB {
	db := joinedDB(t, seed)
	db.MustExec(`INSERT INTO Customers VALUES (NULL, NULL);
		CREATE VIEW ECN AS SELECT *, AVG(custAge) AS MEASURE avgAge, COUNT(*) AS MEASURE cnt FROM Customers;
		CREATE VIEW ECO AS SELECT custName, custAge, avgAge, cnt FROM ECN WHERE custAge > 25;
		CREATE VIEW ECD AS SELECT custName, custAge, custAge * 1.5 AS ageD,
			AVG(custAge) AS MEASURE avgAge, COUNT(*) AS MEASURE cnt FROM Customers`)
	if twins {
		db.MustExec(`INSERT INTO Customers VALUES ('c13', 41), ('c13', 41), ('c14', NULL), ('c14', NULL)`)
	}
	return db
}

// shapeCases renders each measure form under GROUP BY YEAR(...) and its
// ROLLUP for one shape and one random predicate, with the plain SQL of
// TestJoinedMeasureMatchesPlainSQL: the customer's tuple is among the
// group's rows of exists, matched IS NOT DISTINCT FROM, and VISIBLE adds
// the WHERE conjuncts over c alone.
func shapeCases(sh joinShape, rng *rand.Rand) []joinedCase {
	conjs := make([]joinConj, 1+rng.Intn(3))
	for i := range conjs {
		conjs[i] = randomJoinConj(rng)
	}
	where := strings.Join(renderConjs(conjs, "o", "c", false), " AND ")
	var out []joinedCase
	for _, group := range []string{"YEAR(o.orderDate)", "ROLLUP(YEAR(o.orderDate))"} {
		for _, form := range []string{"c.%s", "c.%s AT (VISIBLE)", "AGGREGATE(c.%s)"} {
			sql := fmt.Sprintf(`SELECT YEAR(o.orderDate) AS y, GROUPING(YEAR(o.orderDate)) AS g, COUNT(*) AS n, %s AS m, %s AS k
				FROM %s WHERE %s GROUP BY %s ORDER BY g, y`,
				fmt.Sprintf(form, "avgAge"), fmt.Sprintf(form, "cnt"), sh.from, where, group)
			ctx := []string{fmt.Sprintf(`EXISTS (SELECT 1 FROM %s
				WHERE %s AND (t.g <> 0 OR YEAR(o.orderDate) IS NOT DISTINCT FROM t.y)
				AND c.custName IS NOT DISTINCT FROM c2.custName AND c.custAge IS NOT DISTINCT FROM c2.custAge)`, sh.exists, where)}
			if form != "c.%s" {
				ctx = append(ctx, renderConjs(conjs, "o", "c2", true)...)
			}
			cond := strings.Join(ctx, " AND ")
			oracle := fmt.Sprintf(`SELECT t.y, t.g, t.n, (SELECT AVG(c2.custAge) FROM %s AS c2 WHERE %s) AS m,
				(SELECT COUNT(*) FROM %s AS c2 WHERE %s) AS k
				FROM (SELECT YEAR(o.orderDate) AS y, GROUPING(YEAR(o.orderDate)) AS g, COUNT(*) AS n
				      FROM %s WHERE %s GROUP BY %s) AS t
				ORDER BY t.g, t.y`, sh.base, cond, sh.base, cond, sh.plain, where, group)
			out = append(out, joinedCase{sql, oracle})
		}
	}
	return out
}

// TestJoinedMeasureShapesMatchPlainSQL: outer joins with the measure on
// either side, three tables, identical twin rows, a view over a view, a
// DISTINCT in FROM and a DOUBLE dimension all link by position, and
// every shape is bit-identical to its plain-SQL expansion under the memo
// and naive strategies, with 1 and 4 workers, rollups off and on.
func TestJoinedMeasureShapesMatchPlainSQL(t *testing.T) {
	const seed = 3307
	ctx := context.Background()
	for _, sh := range joinShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			twins := sh.name == "twins"
			oracleDB := shapeDB(t, seed, twins)
			oracleDB.SetWorkers(1)
			dbs := map[string]*msql.DB{"memo": shapeDB(t, seed, twins), "naive": shapeDB(t, seed, twins)}
			dbs["memo"].SetStrategy(msql.StrategyMemo)
			dbs["naive"].SetStrategy(msql.StrategyNaive)
			var cases []joinedCase
			for i := 0; i < 4; i++ {
				cases = append(cases, shapeCases(sh, rng)...)
			}
			for name, db := range dbs {
				txt, err := db.Explain(cases[0].sql)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !strings.Contains(txt, "[context link by position]") {
					t.Fatalf("%s: no link by position:\n%s", name, txt)
				}
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
			if valued < len(cases)*3/4 {
				t.Fatalf("only %d of %d plain-SQL results hold a measure value", valued, len(cases))
			}
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
		})
	}
}

// TestOuterJoinPaddingAddsNoBaseRow: a group's NULL-padded rows bring no
// customer into the measure's context. The tuple link matched them to
// every customer whose dimensions are all NULL: q, r and s counted 2, 2
// and 1 where their visible customer rows number 1, 1 and 0.
func TestOuterJoinPaddingAddsNoBaseRow(t *testing.T) {
	const q = `SELECT o.prodName, c.cnt AT (VISIBLE)
		FROM O AS o LEFT JOIN (SELECT *, COUNT(*) AS MEASURE cnt FROM C) AS c USING (custName)
		GROUP BY o.prodName ORDER BY o.prodName`
	const want = "p 3|q 1|r 1|s 0"
	for _, strategy := range []msql.Strategy{msql.StrategyDefault, msql.StrategyMemo, msql.StrategyNaive} {
		db := msql.Open()
		db.MustExec(`CREATE TABLE C (custName VARCHAR, custAge INTEGER);
			CREATE TABLE O (prodName VARCHAR, custName VARCHAR);
			INSERT INTO C VALUES ('a', 10), ('a', 10), ('b', 20), ('c', NULL), (NULL, NULL), ('d', 40);
			INSERT INTO O VALUES ('p', 'a'), ('p', 'b'), ('q', 'c'), ('q', 'zz'), ('r', NULL), ('r', 'd'), ('s', 'nobody')`)
		db.SetStrategy(strategy)
		for _, workers := range []int{1, 4} {
			res, err := db.QueryContext(context.Background(), q, msql.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range res.Rows {
				got = append(got, row[0].String()+" "+row[1].String())
			}
			if g := strings.Join(got, "|"); g != want {
				t.Fatalf("strategy %d w%d: %s, want %s", strategy, workers, g, want)
			}
		}
	}
}

// TestLinkByPositionTruncateRefill races a linked query against TRUNCATE
// and refill of the measure's table. A generation holds the customers in
// one of two orders, so a position indexing the other generation's rows
// would read other customers: every answer is the one an empty table or
// either generation gives.
func TestLinkByPositionTruncateRefill(t *testing.T) {
	const q = `SELECT YEAR(o.orderDate) AS y, COUNT(*) AS n, c.avgAge AT (VISIBLE) AS v
		FROM Orders AS o JOIN EC AS c USING (custName) WHERE c.custAge >= 20
		GROUP BY YEAR(o.orderDate) ORDER BY y`
	for name, strategy := range map[string]msql.Strategy{"memo": msql.StrategyMemo, "naive": msql.StrategyNaive} {
		t.Run(name, func(t *testing.T) {
			db := joinedDB(t, 11)
			db.SetStrategy(strategy)
			rows := db.MustQuery(`SELECT custName, custAge FROM Customers`).Rows
			refill := func(reversed bool) string {
				var sb strings.Builder
				sb.WriteString("INSERT INTO Customers VALUES ")
				for i := range rows {
					row := rows[i]
					if reversed {
						row = rows[len(rows)-1-i]
					}
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%s, %s)", row[0].SQLLiteral(), row[1].SQLLiteral())
				}
				return sb.String()
			}
			refills := []string{refill(false), refill(true)}
			valid := map[string]bool{}
			for _, fill := range append([]string{""}, refills...) {
				db.MustExec(`TRUNCATE TABLE Customers`)
				if fill != "" {
					db.MustExec(fill)
				}
				valid[strings.Join(exactRows(db.MustQuery(q)), "\n")] = true
			}
			if len(valid) != 2 {
				t.Fatalf("want two answers (empty, and both orders alike), got %d", len(valid))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer func() { close(stop); wg.Wait() }()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					for _, stmt := range []string{`TRUNCATE TABLE Customers`, refills[i%2]} {
						if err := db.Exec(stmt); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			for i := 0; i < 200; i++ {
				res, err := db.QueryContext(context.Background(), q, msql.WithWorkers(1+i%4))
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(exactRows(res), "\n"); !valid[got] {
					t.Fatalf("run %d: an answer of no generation:\n%s", i, got)
				}
			}
		})
	}
}

// linkDB is the tables of TestOuterJoinPaddingAddsNoBaseRow — two equal
// customer rows, a NULL age, a customer whose columns are all NULL, and
// orders of no customer — and CM, the plain measure view over C; with
// double, custAge is a DOUBLE.
func linkDB(t testing.TB, double bool) *msql.DB {
	t.Helper()
	age := "INTEGER"
	if double {
		age = "DOUBLE"
	}
	db := msql.Open()
	db.MustExec(`CREATE TABLE C (custName VARCHAR, custAge ` + age + `);
		CREATE TABLE O (prodName VARCHAR, custName VARCHAR);
		INSERT INTO C VALUES ('a', 10), ('a', 10), ('b', 20), ('c', NULL), (NULL, NULL), ('d', 40);
		INSERT INTO O VALUES ('p', 'a'), ('p', 'b'), ('q', 'c'), ('q', 'zz'), ('r', NULL), ('r', 'd'), ('s', 'nobody');
		CREATE VIEW CM AS SELECT *, COUNT(*) AS MEASURE cnt FROM C`)
	return db
}

// strategyRows runs q under every strategy, with 1 and 4 workers and
// rollups off and on, and fails unless each run renders as want (the
// columns of each row joined by spaces, the rows by "|").
func strategyRows(t *testing.T, db *msql.DB, q, want string) {
	t.Helper()
	for _, strategy := range []msql.Strategy{msql.StrategyDefault, msql.StrategyMemo, msql.StrategyNaive} {
		db.SetStrategy(strategy)
		for _, rollups := range []bool{false, true} {
			db.SetRollups(rollups)
			for _, workers := range []int{1, 4} {
				res, err := db.QueryContext(context.Background(), q, msql.WithWorkers(workers))
				if err != nil {
					t.Fatalf("strategy %d w%d rollups=%v: %v\n%s", strategy, workers, rollups, err, q)
				}
				if got := renderRows(res); got != want {
					t.Fatalf("strategy %d w%d rollups=%v: %s, want %s\n%s", strategy, workers, rollups, got, want, q)
				}
			}
		}
	}
}

func renderRows(res *msql.Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cols := make([]string, len(row))
		for j, v := range row {
			cols[j] = v.String()
		}
		rows[i] = strings.Join(cols, " ")
	}
	return strings.Join(rows, "|")
}

// TestContextLinkOneMeaning: whatever lies between a measure's base rows
// and the join — a DOUBLE dimension, a DISTINCT, a GROUP BY, a UNION
// ALL, a volatile WHERE, a re-export through DISTINCT, a join — the
// measure counts the base rows its group's visible rows came from, each
// once (DESIGN.md §3), and links by position.
func TestContextLinkOneMeaning(t *testing.T) {
	for _, tc := range []struct {
		name, rel string
		double    bool
		want      string
	}{
		{"table", `(SELECT *, COUNT(*) AS MEASURE cnt FROM C)`, false, "p 3|q 1|r 1|s 0"},
		{"double-dimension", `(SELECT *, COUNT(*) AS MEASURE cnt FROM C)`, true, "p 3|q 1|r 1|s 0"},
		{"distinct-base", `(SELECT *, COUNT(*) AS MEASURE cnt FROM (SELECT DISTINCT custName, custAge FROM C))`, false, "p 2|q 1|r 1|s 0"},
		{"grouped-base", `(SELECT *, COUNT(*) AS MEASURE cnt FROM (SELECT custName, MAX(custAge) AS custAge FROM C GROUP BY custName))`, false, "p 2|q 1|r 1|s 0"},
		{"union-all-base", `(SELECT *, COUNT(*) AS MEASURE cnt FROM (SELECT * FROM C UNION ALL SELECT * FROM C))`, false, "p 6|q 2|r 2|s 0"},
		// RANDOM() < 2 keeps every row, but no plan can know that.
		{"volatile-base", `(SELECT *, COUNT(*) AS MEASURE cnt FROM C WHERE RANDOM() < 2)`, false, "p 3|q 1|r 1|s 0"},
		{"distinct-re-export", `(SELECT DISTINCT custName, cnt FROM CM)`, false, "p 3|q 1|r 1|s 0"},
		{"joined-base", `(SELECT *, COUNT(*) AS MEASURE cnt FROM C JOIN C AS k USING (custName))`, false, "p 5|q 1|r 1|s 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := `SELECT o.prodName, c.cnt AT (VISIBLE) FROM O AS o LEFT JOIN ` + tc.rel +
				` AS c USING (custName) GROUP BY o.prodName ORDER BY o.prodName`
			db := linkDB(t, tc.double)
			for _, strategy := range []msql.Strategy{msql.StrategyDefault, msql.StrategyMemo, msql.StrategyNaive} {
				db.SetStrategy(strategy)
				txt, err := db.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(txt, "[context link by position]") || strings.Contains(txt, "[context link]") {
					t.Fatalf("strategy %d: not one link by position:\n%s", strategy, txt)
				}
			}
			strategyRows(t, db, q, tc.want)
		})
	}
}

// TestJoinedMeasureInCorrelatedSubquery: a joined measure inside a
// correlated subquery, with and without VISIBLE, answers for each outer
// row what the uncorrelated query answers for its group, and NULL where
// the group has no row.
func TestJoinedMeasureInCorrelatedSubquery(t *testing.T) {
	db := linkDB(t, false)
	const grouped = `SELECT o2.prodName, c.cnt AT (VISIBLE), c.cnt FROM O AS o2 JOIN CM AS c USING (custName)
		GROUP BY o2.prodName ORDER BY o2.prodName`
	const want = "p 3 3|q 1 1|r 1 1|s NULL NULL"
	if got := renderRows(db.MustQuery(grouped)); got+"|s NULL NULL" != want {
		t.Fatalf("uncorrelated: %s, want the groups of %s", got, want)
	}
	const q = `SELECT p.prodName,
		(SELECT c.cnt AT (VISIBLE) FROM O AS o2 JOIN CM AS c USING (custName)
			WHERE o2.prodName = p.prodName GROUP BY o2.prodName),
		(SELECT c.cnt FROM O AS o2 JOIN CM AS c USING (custName)
			WHERE o2.prodName = p.prodName GROUP BY o2.prodName)
		FROM (SELECT DISTINCT prodName FROM O) AS p ORDER BY p.prodName`
	strategyRows(t, db, q, want)
}

// TestVolatileBaseIsMadeOncePerExecution: a measure whose base keeps a
// random half of the customers reads, in every group, exactly the
// customers the group joined — the one evaluation of its base the join
// read (DESIGN.md §3).
func TestVolatileBaseIsMadeOncePerExecution(t *testing.T) {
	db := msql.Open()
	db.MustExec(`CREATE TABLE C (custName VARCHAR, custAge INTEGER); CREATE TABLE O (prodName VARCHAR, custName VARCHAR)`)
	var cs, os []string
	for i := 0; i < 200; i++ {
		cs = append(cs, fmt.Sprintf("('c%d', %d)", i, 20+i%50))
		os = append(os, fmt.Sprintf("('p%d', 'c%d'), ('p%d', 'c%d')", i%5, i, (i+1)%5, i))
	}
	db.MustExec(`INSERT INTO C VALUES ` + strings.Join(cs, ", ") + `; INSERT INTO O VALUES ` + strings.Join(os, ", "))
	const q = `SELECT o.prodName, COUNT(DISTINCT c.custName), c.cnt AT (VISIBLE), c.cnt
		FROM O AS o JOIN (SELECT *, COUNT(*) AS MEASURE cnt FROM C WHERE RANDOM() < 0.5) AS c USING (custName)
		GROUP BY o.prodName ORDER BY o.prodName`
	for _, strategy := range []msql.Strategy{msql.StrategyDefault, msql.StrategyMemo, msql.StrategyNaive} {
		db.SetStrategy(strategy)
		for _, workers := range []int{1, 4} {
			for run := 0; run < 3; run++ {
				res, err := db.QueryContext(context.Background(), q, msql.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 5 {
					t.Fatalf("strategy %d: %d groups, want 5", strategy, len(res.Rows))
				}
				for _, row := range res.Rows {
					if n := row[1].String(); row[2].String() != n || row[3].String() != n {
						t.Fatalf("strategy %d w%d: group %s joined %s customers, the measure read %s and %s",
							strategy, workers, row[0], n, row[2], row[3])
					}
				}
			}
		}
	}
}

// TestVolatileWhereIsNotAContextPredicate: a volatile WHERE conjunct
// reaches AGGREGATE and AT (VISIBLE) through the link to the group's
// rows, not as a predicate over the measure's base rows, where it would
// be drawn again: each group counts exactly the rows it holds.
func TestVolatileWhereIsNotAContextPredicate(t *testing.T) {
	const q = `SELECT prodName, COUNT(*) AS n, AGGREGATE(cnt) AS a, cnt AT (VISIBLE) AS v
		FROM EO WHERE RANDOM() < 0.5 GROUP BY prodName`
	for _, strategy := range []msql.Strategy{msql.StrategyDefault, msql.StrategyMemo, msql.StrategyNaive} {
		db := buildRandomDB(t, 5, strategy)
		for _, workers := range []int{1, 4} {
			res, err := db.QueryContext(context.Background(), q, msql.WithWorkers(workers))
			if err != nil {
				t.Fatalf("strategy %d w%d: %v", strategy, workers, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("strategy %d w%d: no group", strategy, workers)
			}
			for _, row := range res.Rows {
				if n := row[1].String(); row[2].String() != n || row[3].String() != n {
					t.Fatalf("strategy %d w%d: %s", strategy, workers, renderRows(res))
				}
			}
		}
	}
}

// TestMeasureBaseReadsEnclosingRow: a measure whose base filters on the
// enclosing query's row gives every strategy the default strategy's
// answer, linked through a join or not.
func TestMeasureBaseReadsEnclosingRow(t *testing.T) {
	db := msql.Open()
	db.MustExec(`CREATE TABLE C (custName VARCHAR, custAge INTEGER);
		CREATE TABLE O (prodName VARCHAR, custName VARCHAR);
		INSERT INTO C VALUES ('a', 1), ('b', 2), ('a', 3);
		INSERT INTO O VALUES ('p', 'a'), ('q', 'b'), ('r', 'z')`)
	const base = `(SELECT *, COUNT(*) AS MEASURE cnt FROM C WHERE C.custName = p.custName) AS c`
	for _, tc := range []struct{ name, sub, want string }{
		{"measure", `SELECT c.cnt FROM ` + base + ` GROUP BY c.custName`, "p 2|q 1|r NULL"},
		{"aggregate", `SELECT AGGREGATE(c.cnt) FROM ` + base, "p 2|q 1|r 0"},
		{"at-all", `SELECT c.cnt AT (ALL custName) FROM ` + base + ` GROUP BY c.custName`, "p 2|q 1|r NULL"},
		{"at-set", `SELECT c.cnt AT (SET custAge = 3) FROM ` + base + ` WHERE c.custAge = 1`, "p 1|q NULL|r NULL"},
		{"visible", `SELECT c.cnt AT (VISIBLE) FROM ` + base + ` WHERE c.custAge > 1 GROUP BY c.custName`, "p 1|q 1|r NULL"},
		{"joined", `SELECT c.cnt AT (VISIBLE) FROM O AS o JOIN ` + base + ` USING (custName) GROUP BY o.custName`, "p 2|q 1|r NULL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			strategyRows(t, db, `SELECT p.prodName, (`+tc.sub+`) FROM O AS p ORDER BY p.prodName`, tc.want)
		})
	}
}
