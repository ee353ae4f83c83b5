package msql_test

// A measure reference is expanded at two kinds of call site: a row (a
// non-aggregating SELECT, or a WHERE clause) and a group (an aggregate
// query). Both start from a default evaluation context and transform it
// by the same AT modifiers (paper §3). These tests pin the plans each
// modifier makes at each site, and hold the row site to the aggregate
// site grouped by every dimension.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/measures-sql/msql/msql"
)

// siteMods are the modifier sequences every site is checked under.
var siteMods = []string{
	"ALL",
	"ALL prodName",
	"SET prodName = 'Happy'",
	"SET revenue = CURRENT revenue - 1",
	"VISIBLE",
	"WHERE custName = 'Bob'",
	"ALL prodName SET revenue = CURRENT revenue + 1",
}

// measureSites are the call sites, each a statement with the modifier
// sequence in place of %s.
var measureSites = []struct{ name, sql string }{
	{"row site in SELECT", `SELECT prodName, revenue, sumRevenue AT (%s) AS m
 FROM OrdersWithRevenue WHERE cost > 1`},
	{"row site in WHERE", `SELECT prodName, revenue FROM OrdersWithRevenue
 WHERE sumRevenue AT (%s) > 5`},
	{"aggregate site", `SELECT prodName, revenue, sumRevenue AT (%s) AS m
 FROM OrdersWithRevenue WHERE cost > 1 GROUP BY prodName, revenue`},
	{"aggregate site under a join", `SELECT o.prodName, o.revenue, o.sumRevenue AT (%s) AS m
 FROM OrdersWithRevenue AS o JOIN Customers AS c USING (custName)
 WHERE c.custAge > 20 GROUP BY o.prodName, o.revenue`},
	{"aggregate site under a join, grouped by the other side", `SELECT o.prodName, c.custAge, o.sumRevenue AT (%s) AS m
 FROM OrdersWithRevenue AS o JOIN Customers AS c USING (custName)
 WHERE o.cost > 1 GROUP BY o.prodName, o.revenue, c.custAge`},
	{"aggregate site under ROLLUP", `SELECT prodName, revenue, sumRevenue AT (%s) AS m
 FROM OrdersWithRevenue WHERE cost > 1 GROUP BY ROLLUP(prodName, revenue)`},
}

var siteStrategies = []struct {
	name string
	s    msql.Strategy
}{
	{"default", msql.StrategyDefault},
	{"memo", msql.StrategyMemo},
	{"naive", msql.StrategyNaive},
}

// TestMeasureSitesExplainGolden records the EXPLAIN of every modifier
// sequence at every call site under every strategy, on the paper's
// tables, in testdata/measure_sites.golden. Set MSQL_UPDATE_GOLDEN=1 to
// rewrite the file after a change that means to move a plan.
func TestMeasureSitesExplainGolden(t *testing.T) {
	var out strings.Builder
	for _, st := range siteStrategies {
		db := open(t)
		db.SetStrategy(st.s)
		db.SetWorkers(1)
		for _, site := range measureSites {
			for _, mods := range siteMods {
				sql := fmt.Sprintf(site.sql, mods)
				plan, err := db.Explain(sql)
				if err != nil {
					t.Fatalf("%s, %s, AT (%s): %v", st.name, site.name, mods, err)
				}
				fmt.Fprintf(&out, "-- %s, %s, AT (%s)\n%s\n%s\n", st.name, site.name, mods, sql, plan)
			}
		}
	}
	path := filepath.Join("testdata", "measure_sites.golden")
	if os.Getenv("MSQL_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("EXPLAIN differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("EXPLAIN differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestAllVisibleAtALinkedSite: a site grouped by the other side of a
// join links its context to the group's rows. ALL removes that link and
// VISIBLE makes it again, so AT (ALL VISIBLE) reads the group's visible
// rows, as AT (VISIBLE) and AGGREGATE do; Whizz, whose one customer
// fails the WHERE clause, is in no group.
func TestAllVisibleAtALinkedSite(t *testing.T) {
	const q = `SELECT o.prodName, c.custAge, %s AS r
 FROM OrdersWithRevenue AS o JOIN Customers AS c USING (custName)
 WHERE c.custAge > 20 GROUP BY o.prodName, c.custAge ORDER BY 1, 2`
	const want = "Acme 41 5 | Happy 23 13 | Happy 41 4"
	for _, st := range siteStrategies {
		db := open(t)
		db.SetStrategy(st.s)
		for _, m := range []string{"o.sumRevenue AT (ALL VISIBLE)", "o.sumRevenue AT (VISIBLE)", "AGGREGATE(o.sumRevenue)"} {
			res, err := db.Query(fmt.Sprintf(q, m))
			if err != nil {
				t.Fatalf("%s, %s: %v", st.name, m, err)
			}
			if got := sortedRows(res); got != want {
				t.Errorf("%s, %s: %s, want %s", st.name, m, got, want)
			}
		}
	}
}

// TestRowSiteEqualsGroupedSite: a measure referenced at a row gives the
// value it gives at the group of that row when the query groups by
// every dimension, for every database of at most two distinct rows over
// T(a, b, x), every modifier sequence, WHERE clause and strategy. The
// rows are distinct, so each group holds one row. Under the default
// strategy each query also answers as its expansion (db.Expand) does.
//
// Two cases are left out, since the sites differ there by design:
//   - a bare reference (no AT) in a non-aggregating SELECT is a
//     re-export of the measure, which shows NULL (DESIGN.md §3, closure);
//   - a volatile WHERE conjunct under AT (VISIBLE) is a bind error at a
//     row site and a link to the group's rows at an aggregate site.
func TestRowSiteEqualsGroupedSite(t *testing.T) {
	mods := []string{
		"ALL",
		"ALL a",
		"SET a = 'p'",
		"SET x = CURRENT x - 1",
		"VISIBLE",
		"WHERE b IS NULL",
		"ALL a SET b = 'u'",
		"SET b = CURRENT a",
		"WHERE a = CURRENT a",
		"WHERE x > CURRENT x",
	}
	wheres := []string{"", " WHERE a IS NOT NULL", " WHERE x > 1"}
	var items []string
	for _, m := range mods {
		items = append(items, "s AT ("+m+")", "n AT ("+m+")")
	}
	list := strings.Join(items, ", ")

	var domain []string
	for _, a := range []string{"'p'", "'q'", "NULL"} {
		for _, b := range []string{"'u'", "NULL"} {
			for _, x := range []string{"1", "2", "NULL"} {
				domain = append(domain, "("+a+", "+b+", "+x+")")
			}
		}
	}
	dbs := [][]string{nil}
	for i := range domain {
		dbs = append(dbs, []string{domain[i]})
		for j := i + 1; j < len(domain); j++ {
			dbs = append(dbs, []string{domain[i], domain[j]})
		}
	}
	if len(dbs) != 172 {
		t.Fatalf("%d databases, want 172", len(dbs))
	}

	refused := 0
	for _, rows := range dbs {
		for _, st := range siteStrategies {
			db := msql.Open()
			db.SetStrategy(st.s)
			db.MustExec(`CREATE TABLE T (a VARCHAR, b VARCHAR, x INTEGER);
				CREATE VIEW V AS SELECT *, SUM(x) AS MEASURE s, COUNT(*) AS MEASURE n FROM T`)
			if len(rows) > 0 {
				db.MustExec(`INSERT INTO T VALUES ` + strings.Join(rows, ", "))
			}
			for _, where := range wheres {
				q := `SELECT a, b, x, ` + list + ` FROM V` + where
				row, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s, %v: %v\n%s", st.name, rows, err, q)
				}
				group, err := db.Query(q + ` GROUP BY a, b, x`)
				if err != nil {
					t.Fatalf("%s, %v: %v\n%s GROUP BY a, b, x", st.name, rows, err, q)
				}
				if got, want := sortedRows(row), sortedRows(group); got != want {
					t.Fatalf("%s, rows %v%s:\nrow site: %s\ngrouped:  %s", st.name, rows, where, got, want)
				}
				if st.s != msql.StrategyDefault {
					continue
				}
				for _, c := range []struct {
					sql string
					res *msql.Result
				}{{q, row}, {q + ` GROUP BY a, b, x`, group}} {
					ex, err := db.Expand(c.sql)
					if err != nil {
						refused++
						continue
					}
					plain, err := db.Query(ex)
					if err != nil {
						t.Fatalf("rows %v: the expansion does not run: %v\n%s\n%s", rows, err, c.sql, ex)
					}
					if got, want := sortedRows(plain), sortedRows(c.res); got != want {
						t.Fatalf("rows %v: the expansion answers otherwise:\n%s\n%s\nexpansion: %s\nquery:     %s", rows, c.sql, ex, got, want)
					}
				}
			}
		}
	}
	if refused > 0 {
		t.Errorf("Expand refused %d of %d queries", refused, 2*len(dbs)*len(wheres))
	}
}

// sortedRows renders a result's rows in sorted order.
func sortedRows(res *msql.Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		lines[i] = strings.Join(cells, " ")
	}
	sort.Strings(lines)
	return strings.Join(lines, " | ")
}

// TestAliasedGroupKeyKeepsItsDimension: a group key that is a bare
// column keeps the column's name as its dimension when the select list
// aliases it, and the alias names it too. ALL and SET by either name
// reach the key's term, however the key is written: by position, by the
// alias or by the column. Each answer is the unaliased query's: 25 and
// 17 on every row.
func TestAliasedGroupKeyKeepsItsDimension(t *testing.T) {
	const want = "Acme 25 17 | Happy 25 17 | Whizz 25 17"
	const q = `SELECT prodName%s, sumRevenue AT (ALL %s) AS r, sumRevenue AT (SET %s = 'Happy') AS h
 FROM OrdersWithRevenue GROUP BY %s`
	for _, st := range siteStrategies {
		db := open(t)
		db.SetStrategy(st.s)
		for _, c := range []struct{ alias, dim, key string }{
			{"", "prodName", "prodName"},
			{" AS p", "prodName", "1"},
			{" AS p", "prodName", "p"},
			{" AS p", "prodName", "prodName"},
			{" AS p", "p", "1"},
			{" AS p", "p", "p"},
			{" AS p", "p", "prodName"},
		} {
			sql := fmt.Sprintf(q, c.alias, c.dim, c.dim, c.key)
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s, %s: %v", st.name, sql, err)
			}
			if got := sortedRows(res); got != want {
				t.Errorf("%s, %s:\ngot  %s\nwant %s", st.name, sql, got, want)
			}
		}
	}
}
