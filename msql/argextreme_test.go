package msql_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// argExtremeQuery ranks each group's h by x; a row whose x is NULL has no
// rank and takes no part.
const argExtremeQuery = `SELECT g, ARG_MAX(h, x) AS hi, ARG_MIN(h, x) AS lo FROM F GROUP BY g ORDER BY g`

// openArgExtreme loads F: group a ranks a4 highest and a5 lowest around
// NULL orderings at its start and end, group b orders by NULL only,
// group c starts with a NULL ordering, and group z holds 3000 rows
// whose only ordering value sits in the middle, so a fan-out over
// chunks merges states that saw no ranked row.
func openArgExtreme(t *testing.T) *msql.DB {
	t.Helper()
	db := msql.Open()
	t.Cleanup(func() { db.Close() })
	db.MustExec(`CREATE TABLE F (g VARCHAR, h VARCHAR, x INTEGER)`)
	db.MustExec(`INSERT INTO F VALUES ('a', 'a1', NULL), ('a', 'a2', 5), ('b', 'b1', NULL),
		('c', 'c1', NULL), ('c', 'c2', 3)`)
	rows := make([][]msql.Value, 3000)
	for i := range rows {
		x := sqltypes.Null(sqltypes.KindInt)
		if i == 1500 {
			x = sqltypes.NewInt(42)
		}
		rows[i] = []msql.Value{sqltypes.NewString("z"), sqltypes.NewString(fmt.Sprintf("z%d", i)), x}
	}
	if err := db.InsertRows("F", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO F VALUES ('a', 'a3', NULL), ('a', 'a4', 9), ('a', 'a5', 1), ('b', 'b2', NULL)`)
	return db
}

// TestArgExtremeSkipsNullOrdering: ARG_MAX / ARG_MIN skip a row whose
// ordering argument is NULL, as they skip a NULL first argument, in the
// serial fold, the chunk-merge fan-out, the lattice's in-place fold of
// an INSERT and the /partial state codec.
func TestArgExtremeSkipsNullOrdering(t *testing.T) {
	const want = "a a4 a5|b NULL NULL|c c2 c2|z z1500 z1500"
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		db := openArgExtreme(t)
		res, err := db.QueryContext(ctx, argExtremeQuery, msql.WithWorkers(workers))
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		if got := renderRows(res); got != want {
			t.Fatalf("w%d: %s, want %s", workers, got, want)
		}
	}

	t.Run("lattice", func(t *testing.T) {
		db := openArgExtreme(t)
		db.SetRollups(true)
		for _, step := range []struct{ insert, want string }{
			{"", want},
			{`INSERT INTO F VALUES ('a', 'a6', NULL), ('a', 'a7', 10), ('b', 'b3', NULL), ('c', 'c3', NULL)`,
				"a a7 a5|b NULL NULL|c c2 c2|z z1500 z1500"},
		} {
			if step.insert != "" {
				db.MustExec(step.insert)
			}
			res, err := db.Query(argExtremeQuery)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRows(res); got != step.want {
				t.Fatalf("after %q: %s, want %s", step.insert, got, step.want)
			}
		}
		if st := db.RollupStats(); st.Hits == 0 || st.IncrementalRows == 0 {
			t.Fatalf("the lattice did not fold the INSERT in place: %+v", st)
		}
	})

	t.Run("partial-codec", func(t *testing.T) {
		db := openArgExtreme(t)
		res, err := db.PartialAggregate(ctx, `SELECT g, ARG_MAX(h, x), ARG_MIN(h, x) FROM F GROUP BY g`, nil, "", 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Through the frame a shard sends: a group count, then each
		// group's key values and its two states.
		frame, err := exec.AppendFrame(nil, res.Groups)
		if err != nil {
			t.Fatal(err)
		}
		r := sqltypes.NewReader(frame)
		n, err := r.Uvarint()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for ; n > 0; n-- {
			key, err := r.Values(nil)
			if err != nil {
				t.Fatal(err)
			}
			var states [2]fn.AggState
			for i := range states {
				if states[i], err = fn.ReadState(&r, nil); err != nil {
					t.Fatal(err)
				}
			}
			got = append(got, fmt.Sprintf("%s %s %s", key[0], states[0].Result(), states[1].Result()))
		}
		if r.Left() != 0 {
			t.Fatalf("%d bytes after the last group", r.Left())
		}
		// Groups come in order of first appearance.
		if g, w := strings.Join(got, "|"), "a a4 a5|b NULL NULL|c c2 c2|z z1500 z1500"; g != w {
			t.Fatalf("%s, want %s", g, w)
		}
	})
}
