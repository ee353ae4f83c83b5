package msql_test

// Hand-written cases for the hash-partitioned evaluation of
// equality-correlated contexts, at the SQL surface. Each query runs
// under the memo strategy (partitioned from the first or the second
// context, depending on what a bucket keeps) and is
// compared bit for bit with the naive strategy (per outer row, never
// partitioned); EXPLAIN ANALYZE says which path the memo run took.

import (
	"context"
	"strings"
	"testing"

	"github.com/measures-sql/msql/msql"
)

func TestPartitionedContextsSQL(t *testing.T) {
	cases := []struct {
		name        string
		sql         string
		partitioned bool
	}{
		// prodName is NULL in a tenth of the rows: the bare measure's
		// context is `prodName IS NOT DISTINCT FROM <group key>`, so the
		// NULL group reads the NULL bucket.
		{"null-dimension", `SELECT prodName, rev, cnt FROM EO GROUP BY prodName ORDER BY prodName NULLS LAST`, true},
		{"two-dimensions", `SELECT prodName, orderYear, rev / rev AT (ALL orderYear) AS share FROM EO
			GROUP BY prodName, orderYear ORDER BY prodName NULLS LAST, orderYear`, true},
		// Expression keys on both sides; the first year has no previous
		// year: an empty bucket, SUM gives NULL and COUNT gives 0.
		{"set-current-minus-one", `SELECT orderYear, rev AT (SET orderYear = CURRENT orderYear - 1) AS lastRev,
			cnt AT (SET orderYear = CURRENT orderYear - 1) AS lastCnt,
			margin AT (SET orderYear = CURRENT orderYear - 1) AS lastMargin
			FROM EO GROUP BY orderYear ORDER BY orderYear`, true},
		// Plain SQL `=` correlation: a NULL key matches nothing, so the
		// NULL product counts 0 rows where IS NOT DISTINCT FROM counts them.
		{"sql-equals-null-key", `SELECT p.prodName,
			(SELECT COUNT(*) FROM Orders o WHERE o.prodName = p.prodName) AS n,
			(SELECT AVG(o.revenue) FROM Orders o WHERE o.prodName = p.prodName AND o.cost < 60) AS a
			FROM (SELECT DISTINCT prodName FROM Orders) AS p ORDER BY p.prodName NULLS LAST`, true},
		{"exists-and-in", `SELECT c.custName,
			EXISTS (SELECT 1 FROM Orders o WHERE o.custName = c.custName AND o.revenue > 90) AS big,
			c.custAge IN (SELECT o.cost FROM Orders o WHERE o.custName = c.custName) AS ageIsACost
			FROM Customers c ORDER BY c.custName`, true},
		// Listing 9, with a DOUBLE dimension and without, links by
		// position: each group reads its own rows, and there is nothing
		// to partition.
		{"listing-9-join", `SELECT YEAR(o.orderDate) AS y, COUNT(*) AS n, c.avgAge AT (VISIBLE) AS visibleAvgAge
			FROM Orders AS o JOIN (SELECT custName, custAge * 1.5 AS ageD, AVG(custAge) AS MEASURE avgAge FROM Customers) AS c USING (custName)
			WHERE o.revenue > 20 GROUP BY YEAR(o.orderDate) ORDER BY y`, false},
		{"listing-9-join-by-position", `SELECT YEAR(o.orderDate) AS y, COUNT(*) AS n, c.avgAge AT (VISIBLE) AS visibleAvgAge
			FROM Orders AS o JOIN (SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers) AS c USING (custName)
			WHERE o.revenue > 20 GROUP BY YEAR(o.orderDate) ORDER BY y`, false},
		// Fallbacks: a range context and a volatile input keep the
		// per-context path.
		{"range-context", `SELECT c.custName,
			(SELECT COUNT(*) FROM Orders o WHERE o.revenue <= c.custAge) AS n
			FROM Customers c ORDER BY c.custName`, false},
		{"random-input", `SELECT c.custName,
			(SELECT COUNT(*) FROM (SELECT * FROM Orders WHERE RANDOM() < 2) o WHERE o.custName = c.custName) AS n
			FROM Customers c ORDER BY c.custName`, false},
		// One group, one context: nothing to partition.
		{"single-context", `SELECT prodName, rev FROM EO WHERE prodName = 'prod001' GROUP BY prodName`, false},
	}
	naive := buildRandomDB(t, 99, msql.StrategyNaive)
	naive.SetWorkers(1)
	memo := buildRandomDB(t, 99, msql.StrategyMemo)
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := naive.Query(tc.sql)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			want := exactRows(oracle)
			for _, workers := range []int{1, 4} {
				for _, vectorized := range []bool{false, true} {
					got, err := memo.QueryContext(ctx, tc.sql, msql.WithWorkers(workers), msql.WithVectorized(vectorized))
					if err != nil {
						t.Fatalf("w%d vec=%v: %v", workers, vectorized, err)
					}
					if have := exactRows(got); strings.Join(have, "\n") != strings.Join(want, "\n") {
						t.Fatalf("w%d vec=%v:\n%s\nper-context oracle:\n%s", workers, vectorized,
							strings.Join(have, "\n"), strings.Join(want, "\n"))
					}
				}
			}
			memo.SetWorkers(1)
			txt, err := memo.ExplainAnalyze(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Contains(txt, "partitioned="); got != tc.partitioned {
				t.Fatalf("partitioned=%v, want %v:\n%s", got, tc.partitioned, txt)
			}
		})
	}
}

// TestPartitionedEmptyBucketValues pins the values, not just agreement:
// the year before the first has no rows.
func TestPartitionedEmptyBucketValues(t *testing.T) {
	db := buildRandomDB(t, 99, msql.StrategyMemo)
	res := db.MustQuery(`SELECT orderYear,
		rev AT (SET orderYear = CURRENT orderYear - 1) AS lastRev,
		cnt AT (SET orderYear = CURRENT orderYear - 1) AS lastCnt
		FROM EO GROUP BY orderYear ORDER BY orderYear`)
	if len(res.Rows) != 2 {
		t.Fatalf("years: %d rows", len(res.Rows))
	}
	if first := res.Rows[0]; !first[1].Null || first[2].Null || first[2].I != 0 {
		t.Fatalf("first year: SUM over the empty bucket = %v (want NULL), COUNT = %v (want 0)", first[1], first[2])
	}
	if second := res.Rows[1]; second[1].Null || second[2].I == 0 {
		t.Fatalf("second year must see the first year's rows, got %v", second)
	}
}

// TestPartitionedRowsScanned: the measure's base table is read once, by
// the partition the first context builds, however many groups there
// are; the naive strategy still rescans per group (the E12 ablation).
func TestPartitionedRowsScanned(t *testing.T) {
	const q = `SELECT custName, rev FROM EO GROUP BY custName ORDER BY custName`
	memo := buildRandomDB(t, 99, msql.StrategyMemo)
	for _, workers := range []int{1, 4} {
		memo.SetWorkers(workers)
		memo.MustQuery(q)
		if st := memo.LastStats(); st.RowsScanned != 2*300 || st.SubqueryEvals != 12 {
			t.Fatalf("memo w%d: scanned=%d evals=%d, want 600 (main + partition) and 12", workers, st.RowsScanned, st.SubqueryEvals)
		}
	}
	naive := buildRandomDB(t, 99, msql.StrategyNaive)
	naive.MustQuery(q)
	if st := naive.LastStats(); st.RowsScanned != 13*300 {
		t.Fatalf("naive: scanned=%d, want %d (one rescan per group)", st.RowsScanned, 13*300)
	}
}
