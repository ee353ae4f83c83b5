package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// sortOracle orders rows the way ORDER BY does — NULLs last unless
// NULLS FIRST, whatever the direction — with sort.SliceStable, so rows
// with equal keys keep their input order. Keys are INTEGER, VARCHAR or
// DOUBLE column references.
func sortOracle(rows []Row, items []plan.SortItem) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for _, item := range items {
			i := item.Expr.(*plan.ColRef).Index
			x, y := out[a][i], out[b][i]
			var c int
			switch {
			case x.Null && y.Null:
			case x.Null != y.Null:
				c = 1
				if x.Null == item.NullsFirst {
					c = -1
				}
			default:
				switch x.K {
				case sqltypes.KindString:
					c = compare3(x.S, y.S)
				case sqltypes.KindFloat:
					c = compare3(x.AsFloat(), y.AsFloat())
				default:
					c = compare3(x.I, y.I)
				}
				if item.Desc {
					c = -c
				}
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func compare3[T int64 | string | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// A Sort orders exactly as a stable sort does: over heavy ties, NULLs,
// DESC, NULLS FIRST and up to three keys, the rows come out in the
// oracle's order, ties in input order.
func TestSortMatchesStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := []string{"id", "k", "s", "f"}
	types := []sqltypes.Type{intT(), intT(), strT(), floatT()}
	settings := DefaultSettings()
	settings.Workers = 1
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(600)
		rows := make([]Row, n)
		for i := range rows {
			// Few distinct values per key, so most rows tie on most keys.
			k, s, f := sqltypes.NewInt(int64(rng.Intn(4))), sqltypes.NewString(string(rune('a'+rng.Intn(3)))), sqltypes.NewFloat(float64(rng.Intn(3))/4)
			if rng.Intn(6) == 0 {
				k = sqltypes.Null(sqltypes.KindInt)
			}
			if rng.Intn(6) == 0 {
				s = sqltypes.Null(sqltypes.KindString)
			}
			if rng.Intn(6) == 0 {
				f = sqltypes.Null(sqltypes.KindFloat)
			}
			rows[i] = Row{sqltypes.NewInt(int64(i)), k, s, f}
		}
		var items []plan.SortItem
		for _, c := range rng.Perm(3)[:1+rng.Intn(3)] {
			items = append(items, plan.SortItem{
				Expr:       &plan.ColRef{Index: c + 1, Name: cols[c+1], Typ: types[c+1]},
				Desc:       rng.Intn(2) == 0,
				NullsFirst: rng.Intn(2) == 0,
			})
		}
		got, err := Run(&plan.Sort{Input: tableScan("t", cols, types, rows), Items: items}, settings)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, fmt.Sprintf("trial %d: %d rows by %+v", trial, n, items), sortOracle(rows, items), got)
	}
}
