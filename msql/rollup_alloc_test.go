package msql_test

import (
	"fmt"
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// TestLatticeHitAllocations pins the allocations of a prepared execution
// the rollup lattice answers: the lattice folds the one row inserted
// before each execution (which also voids the result memo), selects the
// groups, and the Aggregate's emit renders them: a one-group tile (a key
// term pins every node key), a grouped tile, and a ROLLUP whose subtotal
// and grand-total sets are derived by merging node groups. The one-group
// tile's limit is what it reads once a single group is rendered without
// a hash index; the others' are the figures measured before the lattice
// rendered through the Aggregate's emit, plus 10 %. A race-detector
// build has figures of its own.
func TestLatticeHitAllocations(t *testing.T) {
	db := msql.Open()
	defer db.Close()
	db.SetWorkers(1)
	db.SetRollups(true)
	db.MustExec(`CREATE TABLE Sales (region VARCHAR, product VARCHAR, amount INTEGER)`)
	row := func(i int) []msql.Value {
		return []msql.Value{sqltypes.NewString(fmt.Sprintf("r%d", i%8)), sqltypes.NewString(fmt.Sprintf("p%d", i%3)), sqltypes.NewInt(int64(i % 97))}
	}
	rows := make([][]msql.Value, 2000)
	for i := range rows {
		rows[i] = row(i)
	}
	if err := db.InsertRows("Sales", rows); err != nil {
		t.Fatal(err)
	}
	one := [][]msql.Value{row(5)}
	for _, tc := range []struct {
		name             string
		sql              string
		args             []any
		limit, limitRace float64
	}{
		{"one-group tile", `SELECT SUM(amount) AS s, COUNT(*) AS n FROM Sales WHERE region = ?`, []any{"r3"}, 48, 56},
		{"grouped tile", `SELECT region, SUM(amount) AS s, COUNT(*) AS n FROM Sales GROUP BY region`, nil, 79 * 1.1, 87 * 1.1},
		{"derived ROLLUP", `SELECT region, product, SUM(amount) AS s FROM Sales GROUP BY ROLLUP(region, product)`, nil, 215 * 1.1, 223 * 1.1},
	} {
		if raceEnabled {
			tc.limit = tc.limitRace
		}
		stmt, err := db.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Query(tc.args...); err != nil {
			t.Fatal(err)
		}
		hits := db.RollupStats().Hits
		const runs = 400
		got := testing.AllocsPerRun(runs, func() {
			if err := db.InsertRows("Sales", one); err != nil {
				t.Fatal(err)
			}
			if _, err := stmt.Query(tc.args...); err != nil {
				t.Fatal(err)
			}
		})
		// AllocsPerRun runs the function once more to warm up.
		if n := db.RollupStats().Hits - hits; n != runs+1 {
			t.Fatalf("%s: %d of %d executions answered by the lattice", tc.name, n, runs+1)
		}
		t.Logf("%s: %.0f allocations per execution", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s: %.0f allocations per execution, want at most %.0f", tc.name, got, tc.limit)
		}
	}
}
