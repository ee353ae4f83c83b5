package exec

import (
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

func intT() sqltypes.Type  { return sqltypes.Type{Kind: sqltypes.KindInt} }
func boolT() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindBool} }

func valuesNode(cols []string, rows ...[]int64) *plan.Values {
	sch := &plan.Schema{}
	for _, c := range cols {
		sch.Cols = append(sch.Cols, plan.Col{Name: c, Typ: intT()})
	}
	out := &plan.Values{Sch: sch}
	for _, r := range rows {
		exprs := make([]plan.Expr, len(r))
		for i, v := range r {
			exprs[i] = &plan.Lit{Val: sqltypes.NewInt(v)}
		}
		out.Rows = append(out.Rows, exprs)
	}
	return out
}

func col(i int, name string) *plan.ColRef { return &plan.ColRef{Index: i, Name: name, Typ: intT()} }

func TestSemiJoin(t *testing.T) {
	left := valuesNode([]string{"a"}, []int64{1}, []int64{2}, []int64{3})
	right := valuesNode([]string{"b"}, []int64{2}, []int64{2}, []int64{3})
	join := &plan.Join{
		Kind:      plan.JoinSemi,
		Left:      left,
		Right:     right,
		EquiLeft:  []plan.Expr{col(0, "a")},
		EquiRight: []plan.Expr{col(0, "b")},
		Sch:       left.Sch,
	}
	rows, err := Run(join, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Semi join: left rows with at least one match, emitted once each.
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 3 {
		t.Fatalf("semi join rows: %v", rows)
	}
}

func TestMemoizationConsistency(t *testing.T) {
	// A correlated scalar subquery evaluated with and without memoization
	// must agree. The subquery counts right rows with b <= outer a.
	mk := func() plan.Node {
		right := valuesNode([]string{"b"}, []int64{1}, []int64{2}, []int64{3})
		sub := &plan.Subquery{
			Plan: &plan.Aggregate{
				Input: &plan.Filter{
					Input: right,
					Pred: &plan.Call{Name: "<=", Typ: boolT(),
						Args: []plan.Expr{col(0, "b"), &plan.CorrRef{Levels: 1, Index: 0, Name: "a", Typ: intT()}}},
				},
				Sets: [][]int{{}},
				Aggs: []plan.AggCall{{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()}},
				Sch:  &plan.Schema{Cols: []plan.Col{{Name: "c", Typ: intT()}}},
			},
			Mode: plan.SubScalar,
			Typ:  intT(),
			Memo: true,
		}
		left := valuesNode([]string{"a"}, []int64{2}, []int64{2}, []int64{3}, []int64{0})
		return &plan.Project{
			Input: left,
			Exprs: []plan.NamedExpr{
				{Expr: col(0, "a"), Col: plan.Col{Name: "a", Typ: intT()}},
				{Expr: sub, Col: plan.Col{Name: "c", Typ: intT()}},
			},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}, {Name: "c", Typ: intT()}}},
		}
	}
	want := [][2]int64{{2, 2}, {2, 2}, {3, 3}, {0, 0}}
	for _, memo := range []bool{true, false} {
		rows, err := Run(mk(), &Settings{MemoizeSubqueries: memo})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("memo=%v: %d rows", memo, len(rows))
		}
		for i, w := range want {
			if rows[i][0].I != w[0] || rows[i][1].I != w[1] {
				t.Errorf("memo=%v row %d: %v want %v", memo, i, rows[i], w)
			}
		}
	}
}

func TestScalarSubqueryEmptyAndMulti(t *testing.T) {
	empty := &plan.Subquery{
		Plan: &plan.Filter{
			Input: valuesNode([]string{"b"}, []int64{1}),
			Pred:  &plan.Lit{Val: sqltypes.NewBool(false)},
		},
		Mode: plan.SubScalar,
		Typ:  intT(),
	}
	out := &plan.Project{
		Input: valuesNode([]string{"a"}, []int64{0}),
		Exprs: []plan.NamedExpr{{Expr: empty, Col: plan.Col{Name: "v", Typ: intT()}}},
		Sch:   &plan.Schema{Cols: []plan.Col{{Name: "v", Typ: intT()}}},
	}
	rows, err := Run(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0][0].Null {
		t.Errorf("empty scalar subquery should be NULL, got %v", rows[0][0])
	}

	multi := &plan.Subquery{
		Plan: valuesNode([]string{"b"}, []int64{1}, []int64{2}),
		Mode: plan.SubScalar,
		Typ:  intT(),
	}
	bad := &plan.Project{
		Input: valuesNode([]string{"a"}, []int64{0}),
		Exprs: []plan.NamedExpr{{Expr: multi, Col: plan.Col{Name: "v", Typ: intT()}}},
		Sch:   &plan.Schema{Cols: []plan.Col{{Name: "v", Typ: intT()}}},
	}
	if _, err := Run(bad, nil); err == nil {
		t.Error("multi-row scalar subquery must error")
	}
}

// TestNullSafeInSubquery: an IN subquery is safe around NULL the SQL
// way — a NULL on the left, or no match in a set that holds NULL, is
// NULL, never FALSE; a match is TRUE whatever else the set holds.
func TestNullSafeInSubquery(t *testing.T) {
	nullLit := &plan.Lit{Val: sqltypes.Null(sqltypes.KindInt)}
	setWithNull := &plan.Values{
		Rows: [][]plan.Expr{{nullLit}, {&plan.Lit{Val: sqltypes.NewInt(1)}}},
		Sch:  &plan.Schema{Cols: []plan.Col{{Name: "v", Typ: intT()}}},
	}
	for _, tc := range []struct {
		left plan.Expr
		want string
	}{
		{nullLit, "NULL"},
		{&plan.Lit{Val: sqltypes.NewInt(1)}, "TRUE"},
		{&plan.Lit{Val: sqltypes.NewInt(2)}, "NULL"},
	} {
		in := &plan.Subquery{Plan: setWithNull, Mode: plan.SubIn, Exprs: []plan.Expr{tc.left}, Typ: boolT()}
		rows, err := Run(&plan.Project{
			Input: valuesNode([]string{"a"}, []int64{0}),
			Exprs: []plan.NamedExpr{{Expr: in, Col: plan.Col{Name: "v", Typ: boolT()}}},
			Sch:   &plan.Schema{Cols: []plan.Col{{Name: "v", Typ: boolT()}}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[0][0].String(); got != tc.want {
			t.Errorf("%s IN {NULL, 1}: %s, want %s", tc.left, got, tc.want)
		}
	}
}

func TestLimitEdgeCases(t *testing.T) {
	in := valuesNode([]string{"a"}, []int64{1}, []int64{2}, []int64{3})
	neg := &plan.Limit{Input: in, Count: &plan.Lit{Val: sqltypes.NewInt(-1)}}
	rows, err := Run(neg, nil)
	if err != nil || len(rows) != 0 {
		t.Errorf("negative limit: %v %v", rows, err)
	}
	far := &plan.Limit{Input: in, Offset: &plan.Lit{Val: sqltypes.NewInt(10)}}
	rows, err = Run(far, nil)
	if err != nil || len(rows) != 0 {
		t.Errorf("offset beyond input: %v %v", rows, err)
	}
}

func TestCorrRefOutOfScope(t *testing.T) {
	bad := &plan.Project{
		Input: valuesNode([]string{"a"}, []int64{1}),
		Exprs: []plan.NamedExpr{{
			Expr: &plan.CorrRef{Levels: 3, Index: 0, Name: "ghost", Typ: intT()},
			Col:  plan.Col{Name: "v", Typ: intT()},
		}},
		Sch: &plan.Schema{Cols: []plan.Col{{Name: "v", Typ: intT()}}},
	}
	if _, err := Run(bad, nil); err == nil {
		t.Error("out-of-scope correlation must error, not panic")
	}
}
