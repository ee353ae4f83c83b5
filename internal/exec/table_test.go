package exec

import (
	"context"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// TestTableFoldsAsTheAggregate: a Table folds rows with its Aggregate's
// kernel — its Filter's predicate, keys and calls — so its groups, in
// position order, are the rows the Aggregate emits over the same rows,
// bit for bit, whether the rows come in one fold or in several.
func TestTableFoldsAsTheAggregate(t *testing.T) {
	scan := factScan(500)
	s := &plan.ColRef{Index: 1, Name: "s", Typ: strT()}
	agg := &plan.Aggregate{
		Input: &plan.Filter{Input: scan, Pred: &plan.Call{Name: "<>", Typ: boolT(),
			Args: []plan.Expr{s, &plan.Lit{Val: sqltypes.NewString("s2")}}}},
		GroupExprs: []plan.Expr{&plan.ColRef{Index: 0, Name: "k", Typ: intT()}, s},
		Sets:       [][]int{{0, 1}},
		Aggs:       []plan.AggCall{countStar, sumF, avgF},
	}
	agg.Sch = &plan.Schema{Cols: []plan.Col{{Name: "k", Typ: intT()}, {Name: "s", Typ: strT()},
		{Name: "n", Typ: intT()}, {Name: "sum", Typ: floatT()}, {Name: "avg", Typ: floatT()}}}
	settings := DefaultSettings()
	settings.Workers = 1
	want, err := RunContext(context.Background(), agg, settings)
	if err != nil {
		t.Fatal(err)
	}
	rows := scan.Source.Rows()
	for _, cuts := range [][]int{{0}, {0, 1, 250, 499}} {
		tab, err := NewTable(agg)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for i, from := range cuts {
			to := len(rows)
			if i+1 < len(cuts) {
				to = cuts[i+1]
			}
			n, err := tab.Fold(rows[:to], from)
			if err != nil {
				t.Fatal(err)
			}
			kept += n
		}
		if kept != 334 {
			t.Fatalf("folds of %v: the predicate passed %d rows, want 334", cuts, kept)
		}
		if tab.Len() != len(want) {
			t.Fatalf("folds of %v: %d groups, want %d", cuts, tab.Len(), len(want))
		}
		for g, row := range want {
			got := append([]sqltypes.Value(nil), tab.Key(g)...)
			for _, st := range tab.States(g) {
				got = append(got, st.Result())
			}
			for j := range row {
				if got[j] != row[j] {
					t.Fatalf("folds of %v: group %d is %v, the Aggregate emits %v", cuts, g, got, row)
				}
			}
		}
	}
}
