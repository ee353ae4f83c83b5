// Package bench regenerates the performance-flavoured claims of
// "Measures in SQL" (see EXPERIMENTS.md): the equivalence and relative
// cost of the four query forms of Listing 12 (E13), the execution
// strategies for measure evaluation — inline vs memoized ("localized
// self-join", §5.1) vs naive correlated (E12), planning overhead of the
// measure expansion (E19), the conciseness metrics of §5.7 (E14), and
// the cost of loading a database through SQL text (E54).
//
// Run with: go test -bench=. -benchmem
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/msql"
)

// loadDB builds a database with a synthetic Orders table of n rows over
// p products.
func loadDB(tb testing.TB, n, products int) *msql.DB {
	tb.Helper()
	db := msql.Open()
	if err := db.Exec(datagen.SetupSQL); err != nil {
		tb.Fatal(err)
	}
	cfg := datagen.Config{Seed: 7, Customers: 100, Products: products, Orders: n, Years: 3}
	ds := datagen.Generate(cfg)
	if err := db.InsertRows("Customers", ds.Customers); err != nil {
		tb.Fatal(err)
	}
	if err := db.InsertRows("Orders", ds.Orders); err != nil {
		tb.Fatal(err)
	}
	return db
}

// Listing 12: the four equivalent formulations of "orders with revenue
// above their product's average".
var listing12 = map[string]string{
	"correlated": `
		SELECT o.prodName, o.orderDate
		FROM Orders AS o
		WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
		                   WHERE o1.prodName = o.prodName)`,
	"selfjoin": `
		SELECT o.prodName, o.orderDate
		FROM Orders AS o
		LEFT JOIN (SELECT prodName, AVG(revenue) AS avgRevenue
		           FROM Orders GROUP BY prodName) AS o2
		  ON o.prodName = o2.prodName
		WHERE o.revenue > o2.avgRevenue`,
	"window": `
		SELECT o.prodName, o.orderDate
		FROM (SELECT prodName, revenue, orderDate,
		             AVG(revenue) OVER (PARTITION BY prodName) AS avgRevenue
		      FROM Orders) AS o
		WHERE o.revenue > o.avgRevenue`,
	"measure": `
		SELECT o.prodName, o.orderDate
		FROM (SELECT prodName, orderDate, revenue,
		             AVG(revenue) AS MEASURE avgRevenue
		      FROM Orders) AS o
		WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)`,
}

// BenchmarkListing12Forms (E13) measures the four forms at two scales.
// With default settings the WinMagic rule (§5.1) rewrites both the
// correlated subquery and the measure form into window aggregates, so
// all four forms land within a small factor of each other — exactly the
// paper's equivalence. BenchmarkListing12CorrelatedMemo and
// BenchmarkListing12NaiveCorrelated show the costs without the rewrite.
func BenchmarkListing12Forms(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := loadDB(b, n, 20)
		for _, form := range []string{"correlated", "selfjoin", "window", "measure"} {
			b.Run(fmt.Sprintf("%s/orders=%d", form, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(listing12[form]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkListing12CorrelatedMemo (E13 ablation) disables WinMagic but
// keeps subquery memoization: one scan per distinct product (the
// "localized self-join" strategy).
func BenchmarkListing12CorrelatedMemo(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := loadDB(b, n, 20)
		db.SetStrategy(msql.StrategyMemo)
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(listing12["correlated"]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkListing12NaiveCorrelated (E13 ablation) runs the correlated
// form with every strategy disabled: O(rows × rows-per-product) work,
// the cost WinMagic-style rewrites (and measures) avoid.
func BenchmarkListing12NaiveCorrelated(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		db := loadDB(b, n, 20)
		db.SetStrategy(msql.StrategyNaive)
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(listing12["correlated"]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// measureQuery is the canonical measure aggregation for the strategy
// benchmarks: per-product profit margin through a measure view.
const measureQuery = `
	SELECT prodName, AGGREGATE(margin) AS margin
	FROM (SELECT *, (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
	      FROM Orders) AS o
	GROUP BY prodName`

// BenchmarkContextStrategies (E12) compares the three execution
// strategies for measure evaluation across data sizes and group counts.
// Expected shape: inline ≈ plain SQL; memo pays one extra scan per
// distinct context; naive pays one scan per group (quadratic in groups ×
// rows).
func BenchmarkContextStrategies(b *testing.B) {
	strategies := []struct {
		name string
		s    msql.Strategy
	}{
		{"inline", msql.StrategyDefault},
		{"memo", msql.StrategyMemo},
		{"naive", msql.StrategyNaive},
	}
	for _, n := range []int{1000, 10000} {
		for _, products := range []int{10, 100} {
			db := loadDB(b, n, products)
			for _, st := range strategies {
				if st.name == "naive" && n > 1000 && products > 10 {
					// Keep the quadratic case bounded; the 1k point
					// already shows the blow-up.
					continue
				}
				b.Run(fmt.Sprintf("%s/orders=%d/groups=%d", st.name, n, products), func(b *testing.B) {
					db.SetStrategy(st.s)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := db.Query(measureQuery); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			db.SetStrategy(msql.StrategyDefault)
		}
	}
}

// BenchmarkPlainAggregateBaseline is the measure-free control for E12:
// the same aggregation written directly against Orders.
func BenchmarkPlainAggregateBaseline(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := loadDB(b, n, 100)
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := db.Query(`
					SELECT prodName,
					       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS margin
					FROM Orders GROUP BY prodName`)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRollupVisible (Listing 8 shape at scale): ROLLUP totals with
// VISIBLE and default contexts — three measures per output row, each a
// different evaluation context.
func BenchmarkRollupVisible(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := loadDB(b, n, 20)
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := db.Query(`
					SELECT o.prodName, COUNT(*) AS c,
					       AGGREGATE(o.rev) AS rAgg,
					       o.rev AT (VISIBLE) AS rViz,
					       o.rev AS r
					FROM (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders) AS o
					WHERE o.custName <> 'cust0001'
					GROUP BY ROLLUP(o.prodName)`)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpandOverhead (E19): the planning-side cost of the measure
// machinery — parse+bind+optimize of a measure query vs. the equivalent
// plain SQL, plus the full SQL-to-SQL expansion.
func BenchmarkExpandOverhead(b *testing.B) {
	db := loadDB(b, 100, 10)
	db.MustExec(`CREATE VIEW EO AS
		SELECT *, (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
		FROM Orders`)
	measureSQL := `SELECT prodName, AGGREGATE(margin) AS m FROM EO GROUP BY prodName`
	plainSQL := `SELECT prodName, (SUM(revenue) - SUM(cost)) / SUM(revenue) AS m
	             FROM Orders GROUP BY prodName`
	b.Run("explain-measure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Explain(measureSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explain-plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Explain(plainSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("expand-to-sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Expand(measureSQL); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinedMeasure (Listing 9 shape at scale): measures linked
// through a join, exercising the semijoin context-link path.
func BenchmarkJoinedMeasure(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := loadDB(b, n, 20)
		db.MustExec(`CREATE VIEW EC AS
			SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers`)
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := db.Query(`
					SELECT o.prodName, COUNT(*) AS c,
					       c.avgAge AT (VISIBLE) AS visibleAvgAge
					FROM Orders AS o
					JOIN EC AS c USING (custName)
					WHERE c.custAge >= 18
					GROUP BY o.prodName`)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWithinDistinct measures the grain-preserving aggregate clause
// (§6.3) against the plain weighted aggregate it corrects.
func BenchmarkWithinDistinct(b *testing.B) {
	db := loadDB(b, 10000, 20)
	queries := map[string]string{
		"weighted": `
			SELECT o.prodName, AVG(c.custAge) AS a
			FROM Orders AS o JOIN Customers AS c USING (custName)
			GROUP BY o.prodName`,
		"within-distinct": `
			SELECT o.prodName, AVG(c.custAge) WITHIN DISTINCT (c.custName) AS a
			FROM Orders AS o JOIN Customers AS c USING (custName)
			GROUP BY o.prodName`,
		"measure": `
			SELECT o.prodName, AGGREGATE(c.avgAge) AS a
			FROM Orders AS o
			JOIN (SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers) AS c
			  USING (custName)
			GROUP BY o.prodName`,
	}
	for _, name := range []string{"weighted", "within-distinct", "measure"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(queries[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowFunctions exercises the window operator at scale.
func BenchmarkWindowFunctions(b *testing.B) {
	db := loadDB(b, 10000, 20)
	b.Run("partition-agg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := db.Query(`
				SELECT prodName, AVG(revenue) OVER (PARTITION BY prodName) AS a
				FROM Orders`)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("running-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := db.Query(`
				SELECT orderDate, SUM(revenue) OVER (ORDER BY orderDate) AS run
				FROM Orders`)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qualify-topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := db.Query(`
				SELECT prodName, revenue FROM Orders
				QUALIFY ROW_NUMBER() OVER (PARTITION BY prodName ORDER BY revenue DESC) <= 3`)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRollupCubeMeasures: grouping-set evaluation with measures.
func BenchmarkRollupCubeMeasures(b *testing.B) {
	db := loadDB(b, 10000, 20)
	db.MustExec(`CREATE VIEW MV AS
		SELECT *, YEAR(orderDate) AS y, SUM(revenue) AS MEASURE rev FROM Orders`)
	b.Run("cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := db.Query(`
				SELECT prodName, y, AGGREGATE(rev) AS r
				FROM MV GROUP BY CUBE(prodName, y)`)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadScript (E54) loads a database through SQL text, as
// `msqld -f` and `msqlcoord -init` do: the 20 000-order dataset of the
// repository benchmark's dashboard workloads and its measure view, about
// 1.08 MB of CREATE, INSERT … VALUES and CREATE VIEW. Per load it
// reports time and allocations, and live-MiB: the heap a loaded database
// keeps once its script is garbage (DESIGN.md §4.7).
func BenchmarkLoadScript(b *testing.B) {
	ds := datagen.Generate(datagen.Config{Seed: 1, Customers: 500, Products: 50, Orders: 20000, Years: 4})
	script := func() string {
		return datagen.SetupSQL + ds.InsertSQL() + `CREATE VIEW EO AS
SELECT *, YEAR(orderDate) AS orderYear,
       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin,
       SUM(revenue) AS MEASURE sumRevenue
FROM Orders;`
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := msql.Open()
	if err := db.Exec(script()); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(db)

	load := script()
	b.SetBytes(int64(len(load)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := msql.Open().Exec(load); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(live/(1<<20), "live-MiB")
}
