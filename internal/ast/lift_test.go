package ast_test

import (
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/parser"
)

// TestLift: the top-level WHERE's literals become parameters numbered
// after the statement's own, in text order; NULL, subqueries and
// literals outside the WHERE stay; lifting a shape again changes
// nothing.
func TestLift(t *testing.T) {
	for _, tc := range []struct {
		sql, want string
		lits      []string
	}{
		{`SELECT a FROM t WHERE a = $1 AND b > -5 AND c = 'x' AND d = $2`,
			`SELECT a FROM t WHERE a = $1 AND b > $3 AND c = $4 AND d = $2`, []string{"-5", "'x'"}},
		{`SELECT a FROM t WHERE a = ? OR b BETWEEN 1.5 AND 2 OR c IN (TRUE, FALSE)`,
			`SELECT a FROM t WHERE a = $1 OR b BETWEEN $2 AND $3 OR c IN ($4, $5)`, []string{"1.5", "2", "TRUE", "FALSE"}},
		{`SELECT a FROM t WHERE a = NULL OR b = DATE '2024-01-01'`,
			`SELECT a FROM t WHERE a = NULL OR b = $1`, []string{"DATE '2024-01-01'"}},
		{`SELECT a + 1 AS x FROM t WHERE a IN (SELECT y FROM u WHERE z = 3) AND a > 2 ORDER BY x LIMIT 10`,
			`SELECT a + 1 AS x FROM t WHERE a IN (SELECT y FROM u WHERE z = 3) AND a > $1 ORDER BY x LIMIT 10`, []string{"2"}},
		{`SELECT a FROM t WHERE a = 1 UNION ALL SELECT a FROM t WHERE a = 2`,
			`SELECT a FROM t WHERE a = 1 UNION ALL SELECT a FROM t WHERE a = 2`, nil},
		{`SELECT 1 AS one FROM t`, `SELECT 1 AS one FROM t`, nil},
	} {
		q, n, err := parser.ParseQueryWithParams(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		lifted, lits := ast.Lift(q, n)
		want, err := parser.ParseQuery(tc.want)
		if err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if got := ast.FormatQuery(lifted); got != ast.FormatQuery(want) {
			t.Errorf("%s:\nlifted %s\nwant   %s", tc.sql, got, tc.want)
		}
		var got []string
		for _, l := range lits {
			got = append(got, ast.FormatExpr(l))
		}
		if strings.Join(got, ",") != strings.Join(tc.lits, ",") {
			t.Errorf("%s: took %v, want %v", tc.sql, got, tc.lits)
		}
		if lits == nil && lifted != q {
			t.Errorf("%s: nothing to lift, but Lift copied the query", tc.sql)
		}
		again, more := ast.Lift(lifted, n+len(lits))
		if again != lifted || more != nil {
			t.Errorf("%s: lifting the shape again took %d literals", tc.sql, len(more))
		}
	}
}
