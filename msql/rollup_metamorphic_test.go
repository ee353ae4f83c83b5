package msql_test

// Metamorphic properties of the rollup lattice's derivation rule
// (coarser grouping sets derived by merging finer aggregate states),
// plus a concurrency hammer that races queriers against inserters and
// a dirty-group rebuilder. Run with -race in CI.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// rollupDB is a lattice-enabled random database.
func rollupDB(t testing.TB, seed int64) *msql.DB {
	t.Helper()
	db := buildRandomDB(t, seed, msql.StrategyDefault)
	db.SetRollups(true)
	return db
}

// queryMap runs a two-column (key, int) query and returns key→value.
func queryMap(t *testing.T, db *msql.DB, sql string) map[string]int64 {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := map[string]int64{}
	for _, row := range res.Rows {
		k := "NULL"
		if !row[0].Null {
			k = row[0].String()
		}
		if row[1].Null {
			continue
		}
		out[k] = row[1].I
	}
	return out
}

// TestRollupMetamorphicCoarseFromFine checks the derivation rule
// end-to-end: the engine's coarse answer (served from the lattice, by
// merging the fine node's states when the fine node was built first)
// must equal the test's own recombination of the fine answer.
func TestRollupMetamorphicCoarseFromFine(t *testing.T) {
	for _, agg := range []struct {
		name, fn string
		combine  func(a, b int64) int64
	}{
		{"sum", "SUM(revenue)", func(a, b int64) int64 { return a + b }},
		{"count", "COUNT(*)", func(a, b int64) int64 { return a + b }},
		{"min", "MIN(revenue)", func(a, b int64) int64 {
			if b < a {
				return b
			}
			return a
		}},
		{"max", "MAX(revenue)", func(a, b int64) int64 {
			if b > a {
				return b
			}
			return a
		}},
	} {
		agg := agg
		t.Run(agg.name, func(t *testing.T) {
			db := rollupDB(t, 7)
			// Materialize the fine node first so the coarse query is
			// answered by merging its states, not by a fresh scan.
			fine, err := db.Query(fmt.Sprintf(
				"SELECT prodName, custName, %s FROM Orders GROUP BY prodName, custName", agg.fn))
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{}
			for _, row := range fine.Rows {
				k := "NULL"
				if !row[0].Null {
					k = row[0].String()
				}
				if row[2].Null {
					continue
				}
				if cur, ok := want[k]; ok {
					want[k] = agg.combine(cur, row[2].I)
				} else {
					want[k] = row[2].I
				}
			}
			got := queryMap(t, db, fmt.Sprintf(
				"SELECT prodName, %s FROM Orders GROUP BY prodName", agg.fn))
			if len(got) != len(want) {
				t.Fatalf("group count: recombined=%d coarse=%d", len(want), len(got))
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("%s: recombined=%d coarse=%d", k, w, got[k])
				}
			}
			if hits := db.RollupStats().Hits; hits < 2 {
				t.Fatalf("expected both queries lattice-answered, hits=%d", hits)
			}
		})
	}
}

// TestRollupMetamorphicRollupConsistency checks the multi-set shape: in
// a GROUP BY ROLLUP result the subtotal rows must equal the sum of
// their detail rows, and the grand total the sum of subtotals, when
// both levels are served from one lattice node.
func TestRollupMetamorphicRollupConsistency(t *testing.T) {
	db := rollupDB(t, 11)
	res, err := db.Query(`SELECT prodName, custName, SUM(revenue), GROUPING(custName), GROUPING(prodName)
		FROM Orders GROUP BY ROLLUP(prodName, custName)`)
	if err != nil {
		t.Fatal(err)
	}
	detail := map[string]int64{}
	subtotal := map[string]int64{}
	var grand, grandWant int64
	key := func(v sqltypes.Value) string {
		if v.Null {
			return "NULL"
		}
		return v.String()
	}
	for _, row := range res.Rows {
		sum := int64(0)
		if !row[2].Null {
			sum = row[2].I
		}
		gCust, gProd := row[3].I, row[4].I
		switch {
		case gProd == 1:
			grand = sum
		case gCust == 1:
			subtotal[key(row[0])] = sum
		default:
			detail[key(row[0])] += sum
		}
	}
	for k, want := range detail {
		if subtotal[k] != want {
			t.Errorf("subtotal %s: rollup=%d detail-sum=%d", k, subtotal[k], want)
		}
		grandWant += want
	}
	if grand != grandWant {
		t.Errorf("grand total: rollup=%d subtotal-sum=%d", grand, grandWant)
	}
	if db.RollupStats().Hits == 0 {
		t.Fatal("ROLLUP query was not lattice-answered")
	}
}

// TestRollupMetamorphicAtAllDim checks the measure-context derivation:
// rev AT (ALL custName) grouped by (prodName, custName) must equal, on
// every row, the union-of-slices total — the sum of per-custName rev
// values for that prodName computed from a separate fine query.
func TestRollupMetamorphicAtAllDim(t *testing.T) {
	db := rollupDB(t, 13)
	fine, err := db.Query(`SELECT prodName, custName, rev FROM EO GROUP BY prodName, custName`)
	if err != nil {
		t.Fatal(err)
	}
	perProd := map[string]int64{}
	key := func(v sqltypes.Value) string {
		if v.Null {
			return "NULL"
		}
		return v.String()
	}
	for _, row := range fine.Rows {
		if !row[2].Null {
			perProd[key(row[0])] += row[2].I
		}
	}
	all, err := db.Query(`SELECT prodName, custName, rev AT (ALL custName) AS r
		FROM EO GROUP BY prodName, custName`)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) != len(fine.Rows) {
		t.Fatalf("row count: fine=%d at-all=%d", len(fine.Rows), len(all.Rows))
	}
	for _, row := range all.Rows {
		want := perProd[key(row[0])]
		var got int64
		if !row[2].Null {
			got = row[2].I
		}
		if got != want {
			t.Errorf("prodName=%s custName=%s: AT (ALL custName)=%d union-of-slices=%d",
				key(row[0]), key(row[1]), got, want)
		}
	}
	if db.RollupStats().Hits == 0 {
		t.Fatal("AT (ALL custName) query was not lattice-answered")
	}
}

// pinnedQueries are the race hammer's pinned querier: a key-pinning
// WHERE and an AT (ALL …) context select groups through a node's column
// index, which the first of them builds and sync then extends.
func pinnedQueries(i int) []string {
	return []string{
		fmt.Sprintf(`SELECT prodName, SUM(revenue) FROM Orders WHERE custName = 'cust000%d' GROUP BY prodName`, i%10),
		`SELECT prodName, custName, rev AT (ALL custName) FROM EO GROUP BY prodName, custName`,
	}
}

// TestRollupRaceHammer races lattice-answered queries against
// inserters, an AVG querier (AVG over DOUBLE is order-sensitive, so its
// node folds deltas that no state merge could reproduce) and a pinned
// querier (the lazy column-index build and its maintenance by sync) on
// one shared database. Run under -race in CI; also asserts no goroutine leaks.
func TestRollupRaceHammer(t *testing.T) {
	db := rollupDB(t, 17)
	base := runtime.NumGoroutine()
	const iterations = 40
	var wg sync.WaitGroup
	fatal := make(chan error, 8)
	report := func(err error) {
		select {
		case fatal <- err:
		default:
		}
	}
	// Queriers: exactly-mergeable dashboards.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if _, err := db.Query(`SELECT prodName, SUM(revenue), COUNT(*) FROM Orders GROUP BY prodName`); err != nil {
					report(fmt.Errorf("querier: %w", err))
					return
				}
			}
		}()
	}
	// Order-sensitive querier: its node folds each insert round's
	// delta in place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			if _, err := db.Query(`SELECT custName, AVG(revenue * 1.0) FROM Orders GROUP BY custName`); err != nil {
				report(fmt.Errorf("order-sensitive querier: %w", err))
				return
			}
		}
	}()
	// Pinned querier: group selection through column indexes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			for _, q := range pinnedQueries(i) {
				if _, err := db.Query(q); err != nil {
					report(fmt.Errorf("pinned querier: %w", err))
					return
				}
			}
		}
	}()
	// Inserters: concurrent INSERT batches.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				stmt := fmt.Sprintf(
					"INSERT INTO Orders VALUES ('prod%03d', 'cust%04d', DATE '2024-03-%02d', %d, %d)",
					g, i%12, 1+i%28, 10+i, 5+i/2)
				if err := db.Exec(stmt); err != nil {
					report(fmt.Errorf("inserter: %w", err))
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-fatal:
		t.Fatal(err)
	default:
	}
	// Quiesced database must still agree with a fresh scan.
	st := db.RollupStats()
	if st.Hits == 0 {
		t.Fatal("hammer produced no lattice hits")
	}
	want := queryMap(t, db, `SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName`)
	var pinned []string
	hits := db.RollupStats().Hits
	for i := 0; i < 10; i++ {
		for _, q := range pinnedQueries(i) {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			pinned = append(pinned, fmt.Sprint(res.Rows))
		}
	}
	if db.RollupStats().Hits < hits+20 {
		t.Fatalf("pinned queries were not lattice-answered: %d hits for 20 queries", db.RollupStats().Hits-hits)
	}
	db.SetRollups(false)
	got := queryMap(t, db, `SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName`)
	if db.RollupStats().Hits != 0 || len(want) != len(got) {
		t.Fatalf("post-hammer state: hits after disable=%d rows lattice=%d direct=%d",
			db.RollupStats().Hits, len(want), len(got))
	}
	for k, w := range got {
		if want[k] != w {
			t.Errorf("post-hammer %s: lattice=%d direct=%d", k, want[k], w)
		}
	}
	for i := 0; i < 10; i++ {
		for j, q := range pinnedQueries(i) {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if direct := fmt.Sprint(res.Rows); direct != pinned[2*i+j] {
				t.Errorf("post-hammer %s:\nlattice %s\ndirect  %s", q, pinned[2*i+j], direct)
			}
		}
	}
	waitGoroutines(t, base)
}

// TestSetRollupsOneLattice races two SetRollups(true) calls and then
// runs one GROUP BY: the lattice that statement consulted must be the
// one RollupStats and the metrics section report, so its Answer shows
// up in Hits+Misses. Meaningful with -cpu 4.
func TestSetRollupsOneLattice(t *testing.T) {
	db := msql.Open()
	if err := db.Exec(`CREATE TABLE t (k VARCHAR, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)`); err != nil {
		t.Fatal(err)
	}
	const rounds = 20000
	split, mismatched := 0, 0
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				db.SetRollups(true)
			}()
		}
		wg.Wait()
		if _, err := db.Query(`SELECT k, SUM(v) FROM t GROUP BY k`); err != nil {
			t.Fatal(err)
		}
		st := db.RollupStats()
		if st.Hits+st.Misses == 0 {
			split++
		}
		if m := db.Metrics().Rollups; m == nil || *m != st {
			mismatched++
		}
	}
	if split > 0 {
		t.Errorf("%d of %d rounds: the GROUP BY consulted a lattice RollupStats does not report", split, rounds)
	}
	if mismatched > 0 {
		t.Errorf("%d of %d rounds: the metrics section and RollupStats report different lattices", mismatched, rounds)
	}
}
