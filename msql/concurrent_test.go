package msql_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// concurrentShapes are the served measure shapes — Listings 4, 6, 10 and
// 9, AT (ALL), plain GROUP BY — and a floating-point SUM over a join,
// whose value depends on the order it adds its rows in.
var concurrentShapes = []string{
	`SELECT prodName, AGGREGATE(margin) AS m, COUNT(*) AS n
FROM EO WHERE revenue > 15 AND cost < 90 GROUP BY prodName ORDER BY prodName`,
	`SELECT prodName, AGGREGATE(sumRevenue) AS r, sumRevenue / sumRevenue AT (ALL prodName) AS share
FROM EO WHERE revenue > 12 AND cost < 85 GROUP BY prodName ORDER BY prodName`,
	`SELECT orderYear, AGGREGATE(sumRevenue) AS r, sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS lastYear
FROM EO WHERE revenue > 17 AND cost < 95 GROUP BY orderYear ORDER BY orderYear`,
	`SELECT YEAR(o.orderDate) AS y, COUNT(*) AS orderCount, AVG(c.custAge) AS weightedAvgAge,
       c.avgAge AT (VISIBLE) AS visibleAvgAge
FROM Orders AS o
JOIN (SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers) AS c USING (custName)
WHERE c.custAge >= 18 AND o.revenue > 15 GROUP BY YEAR(o.orderDate) ORDER BY y`,
	`SELECT prodName, AGGREGATE(sumRevenue) AS vis, sumRevenue AT (ALL) AS total
FROM EO WHERE revenue > 11 AND cost < 88 GROUP BY prodName ORDER BY prodName`,
	`SELECT custName, COUNT(*) AS n, SUM(revenue) AS rev
FROM Orders WHERE revenue > 14 AND cost < 92 GROUP BY custName ORDER BY custName`,
	`SELECT c.custAge, COUNT(*) AS n, SUM(o.revenue * 0.1) AS s
FROM Orders AS o JOIN Customers AS c USING (custName) GROUP BY c.custAge ORDER BY c.custAge`,
}

// Statements that run side by side fan out onto fewer workers than one
// running alone, and fold a join only when that makes them serial; none
// of it may change a result. Four goroutines replay the served shapes
// for two seconds with the default worker bound, and every result must
// equal, bit for bit, the statement's serial result taken alone.
func TestConcurrentStatementsMatchSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		// Four CPUs' worth of bound, so statements coming and going move
		// one another's fan-out through every width from 4 down to 1.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	db := msql.Open()
	db.MustExec(datagen.SetupSQL)
	ds := datagen.Generate(datagen.Config{Seed: 41, Customers: 500, Products: 50, Orders: 10000, Years: 4})
	if err := db.InsertRows("Customers", ds.Customers); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("Orders", ds.Orders); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE VIEW EO AS
SELECT *, YEAR(orderDate) AS orderYear,
       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin,
       SUM(revenue) AS MEASURE sumRevenue
FROM Orders`)

	ctx := context.Background()
	want := make([][][]sqltypes.Value, len(concurrentShapes))
	for i, q := range concurrentShapes {
		res, err := db.QueryContext(ctx, q, msql.WithWorkers(1))
		if err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("no rows:\n%s", q)
		}
		want[i] = res.Rows
	}

	deadline := time.Now().Add(2 * time.Second)
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(deadline); i++ {
				s := i % len(concurrentShapes)
				res, err := db.QueryContext(ctx, concurrentShapes[s])
				if err == nil {
					err = sameValues(want[s], res.Rows)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, run %d: %v\n%s", g, i, err, concurrentShapes[s])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameValues reports the first cell where got differs from want; a
// DOUBLE keeps its bit pattern in I, so == is bit equality.
func sameValues(want, got [][]sqltypes.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, serial %d", len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d: width %d, serial %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				return fmt.Errorf("row %d col %d: %#v, serial %#v", r, c, got[r][c], want[r][c])
			}
		}
	}
	return nil
}

// TestConcurrentStatementsCountTheirOwnRows: every statement counts its
// execution into counters of its own, so statements running at once on
// one DB add exactly their own scanned rows to the session's metrics,
// and LastStats reads the counters of one statement, whole.
func TestConcurrentStatementsCountTheirOwnRows(t *testing.T) {
	db := msql.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (k INTEGER, v INTEGER)`)
	rows := make([][]msql.Value, 1000)
	for i := range rows {
		rows[i] = []msql.Value{sqltypes.NewInt(int64(i % 10)), sqltypes.NewInt(int64(i))}
	}
	if err := db.InsertRows("T", rows); err != nil {
		t.Fatal(err)
	}
	const goroutines, runs = 64, 20
	before := db.Metrics().RowsScanned
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if _, err := db.Query(`SELECT k, SUM(v) AS s FROM T GROUP BY k`); err != nil {
					t.Error(err)
					return
				}
				if st := db.LastStats(); st.RowsScanned != 1000 {
					t.Errorf("LastStats counts %d scanned rows, want 1000 (one statement's)", st.RowsScanned)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := db.Metrics().RowsScanned-before, int64(goroutines*runs*1000); got != want {
		t.Fatalf("%d statements at once counted %d scanned rows, want %d", goroutines*runs, got, want)
	}
}
