package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/parser"
)

func expandSession(t *testing.T) *Session {
	t.Helper()
	s := New()
	if _, err := s.Execute(`
		CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, orderDate DATE,
		                     revenue INTEGER, cost INTEGER);
		INSERT INTO Orders VALUES
		  ('Happy', 'Alice', DATE '2023-11-28', 6, 4),
		  ('Acme',  'Bob',   DATE '2023-11-27', 5, 2),
		  ('Happy', 'Bob',   DATE '2022-11-27', 4, 1);
		CREATE VIEW MV AS
		SELECT *, SUM(revenue) AS MEASURE rev,
		       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
		FROM Orders;
		CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders;
	`); err != nil {
		t.Fatal(err)
	}
	return s
}

func expand(t *testing.T, s *Session, sql string) string {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ExpandQuery(q)
	if err != nil {
		t.Fatalf("expand %q: %v", sql, err)
	}
	return out
}

func expandErr(t *testing.T, s *Session, sql, needle string) {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ExpandQuery(q)
	if err == nil {
		t.Fatalf("expand %q: expected error with %q", sql, needle)
	}
	if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(needle)) {
		t.Errorf("expand %q: error %q missing %q", sql, err, needle)
	}
}

func TestExpandMeasureFreeQueryUnchanged(t *testing.T) {
	s := expandSession(t)
	out := expand(t, s, `SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName`)
	if strings.Contains(out, "(") && strings.Contains(strings.ToUpper(out), "FROM ORDERS AS I") {
		t.Errorf("measure-free query should pass through: %s", out)
	}
}

func TestExpandViaCTE(t *testing.T) {
	s := expandSession(t)
	out := expand(t, s, `
		WITH V AS (SELECT *, AVG(revenue) AS MEASURE avgRev FROM Orders)
		SELECT prodName, AGGREGATE(avgRev) AS a FROM V GROUP BY prodName`)
	if !strings.Contains(out, "AVG(i.revenue)") {
		t.Errorf("CTE-provided measure not expanded:\n%s", out)
	}
	// The expansion must run and agree with the original.
	orig, err := s.Query(`
		WITH V AS (SELECT *, AVG(revenue) AS MEASURE avgRev FROM Orders)
		SELECT prodName, AGGREGATE(avgRev) AS a FROM V GROUP BY prodName ORDER BY prodName`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(out + " ORDER BY prodName")
	if err != nil {
		t.Fatalf("expanded CTE query fails: %v\n%s", err, out)
	}
	if len(orig.Rows) != len(got.Rows) {
		t.Errorf("row counts differ: %d vs %d", len(orig.Rows), len(got.Rows))
	}
}

func TestExpandBakedWhere(t *testing.T) {
	s := expandSession(t)
	if _, err := s.Execute(`CREATE VIEW NB AS
		SELECT prodName, custName, revenue, SUM(revenue) AS MEASURE rev
		FROM Orders WHERE custName <> 'Bob'`); err != nil {
		t.Fatal(err)
	}
	out := expand(t, s, `SELECT prodName, AGGREGATE(rev) AS r FROM NB GROUP BY prodName`)
	// The view's own WHERE must appear inside the subquery (baked in).
	if !strings.Contains(out, "<> 'Bob'") {
		t.Errorf("baked WHERE missing from expansion:\n%s", out)
	}
}

func TestExpandGlobalAggregate(t *testing.T) {
	s := expandSession(t)
	out := expand(t, s, `SELECT AGGREGATE(rev) AS total FROM MV`)
	// One row, no outer FROM needed.
	res, err := s.Query(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 15 {
		t.Errorf("global expansion rows: %v\n%s", res.Rows, out)
	}
}

func TestExpandUnsupportedShapes(t *testing.T) {
	s := expandSession(t)
	expandErr(t, s, `SELECT prodName, AGGREGATE(rev) AS r FROM MV GROUP BY ROLLUP(prodName)`, "ROLLUP")
	expandErr(t, s, `SELECT m.prodName, AGGREGATE(m.rev) AS r
	                 FROM MV AS m JOIN Orders AS o ON m.prodName = o.prodName
	                 GROUP BY m.prodName`, "join")
	expandErr(t, s, `SELECT * FROM MV`, "SELECT *")
	expandErr(t, s, `SELECT prodName, SUM(revenue) AS MEASURE m2 FROM MV GROUP BY prodName`, "aggregate query")
	// A bare measure in a non-aggregating SELECT re-exports it and shows
	// NULL: it has no expansion.
	expandErr(t, s, `SELECT prodName, custName, sumRevenue AS r FROM EO`, "re-export")
	// A measure composed from its FROM's measures reads their base rows.
	expandErr(t, s, `WITH V2 AS (SELECT *, rev * 2 AS MEASURE r2 FROM MV)
	                 SELECT prodName, AGGREGATE(r2) AS r FROM V2 GROUP BY prodName`, "not a column")
	// A relation that only re-exports measures holds no formula to expand.
	expandErr(t, s, `SELECT prodName, AGGREGATE(r) AS x FROM (SELECT prodName, rev AS r FROM MV) AS d GROUP BY prodName`, "derived table d re-exports")
	expandErr(t, s, `WITH RE AS (SELECT prodName, rev AS r FROM MV)
	                 SELECT prodName, AGGREGATE(r) AS x FROM RE GROUP BY prodName`, "RE re-exports")
}

func TestExpandRecursiveMeasureRejected(t *testing.T) {
	s := New()
	if _, err := s.Execute(`
		CREATE TABLE T (v INTEGER);
	`); err != nil {
		t.Fatal(err)
	}
	// The view itself fails to bind, so CREATE VIEW rejects it — the
	// expansion path never sees recursive measures.
	_, err := s.Execute(`CREATE VIEW R AS SELECT *, m + 1 AS MEASURE m FROM T`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive measure should fail at CREATE VIEW: %v", err)
	}
}

// An expansion answers as its query. CURRENT d in AT (WHERE ...) is the
// context's value of d: the row's at a row site, the group's at an
// aggregate site. A call around a measure reference keeps the
// reference's subquery as its argument; only AGGREGATE and EVAL are
// peeled.
func TestExpandAgreesWithQuery(t *testing.T) {
	s := expandSession(t)
	for _, c := range []struct{ sql, want string }{
		{`SELECT prodName, custName, sumRevenue AT (WHERE prodName = CURRENT prodName) AS r FROM EO ORDER BY custName, r`, "i.prodName = o.prodName"},
		{`SELECT prodName, sumRevenue AT (WHERE prodName = CURRENT prodName) AS r FROM EO GROUP BY prodName ORDER BY prodName`, "i.prodName = o.prodName"},
		{`SELECT prodName, ABS(AGGREGATE(rev)) AS r FROM MV GROUP BY prodName ORDER BY prodName`, "ABS("},
		{`SELECT prodName, custName, ROUND(sumRevenue AT (ALL)) AS r FROM EO ORDER BY custName, prodName`, "ROUND("},
		{`SELECT prodName, COALESCE(EVAL(margin)) AS r FROM MV GROUP BY prodName ORDER BY prodName`, "COALESCE("},
	} {
		if out := expandAgrees(t, s, c.sql); !strings.Contains(out, c.want) {
			t.Errorf("expansion lacks %q:\n%s", c.want, out)
		}
	}
}

// expandAgrees expands sql, checks that running the expansion gives the
// rows sql gives, and returns the expansion.
func expandAgrees(t *testing.T, s *Session, sql string) string {
	t.Helper()
	out := expand(t, s, sql)
	want, err := s.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if w, g := fmt.Sprint(want.Rows), fmt.Sprint(got.Rows); w != g {
		t.Errorf("%s\nexpansion answers %s, want %s\n%s", sql, g, w, out)
	}
	return out
}
