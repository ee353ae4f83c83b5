package optimizer

import (
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

func intT() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindInt} }

func lit(i int64) *plan.Lit { return &plan.Lit{Val: sqltypes.NewInt(i)} }

func TestConstantFolding(t *testing.T) {
	// (1 + 2) * 3 folds to 9; a column reference blocks folding above it.
	inner := &plan.Call{Name: "+", Args: []plan.Expr{lit(1), lit(2)}, Typ: intT()}
	outer := &plan.Call{Name: "*", Args: []plan.Expr{inner, lit(3)}, Typ: intT()}
	node := &plan.Filter{
		Input: &plan.Values{Sch: &plan.Schema{}},
		Pred: &plan.Call{Name: "=", Typ: sqltypes.Type{Kind: sqltypes.KindBool},
			Args: []plan.Expr{outer, &plan.ColRef{Index: 0, Name: "x", Typ: intT()}}},
	}
	opt := Optimize(node, Options{FoldConstants: true, MemoizeSubqueries: true})
	pred := opt.(*plan.Filter).Pred.String()
	if !strings.Contains(pred, "9") || strings.Contains(pred, "+") {
		t.Errorf("constant not folded: %s", pred)
	}
	if !strings.Contains(pred, "$0:x") {
		t.Errorf("column lost: %s", pred)
	}

	// Folding off leaves the tree alone.
	raw := Optimize(node, Options{FoldConstants: false, MemoizeSubqueries: true})
	if !strings.Contains(raw.(*plan.Filter).Pred.String(), "+") {
		t.Error("folding ran despite being disabled")
	}
}

func TestFoldingDoesNotHideErrors(t *testing.T) {
	// SQRT(-1) errors at runtime; folding must leave it in place rather
	// than panic or swallow the expression.
	bad := &plan.Call{Name: "SQRT", Args: []plan.Expr{lit(-1)}, Typ: sqltypes.Type{Kind: sqltypes.KindFloat}}
	node := &plan.Filter{Input: &plan.Values{Sch: &plan.Schema{}},
		Pred: &plan.Call{Name: ">", Typ: sqltypes.Type{Kind: sqltypes.KindBool}, Args: []plan.Expr{bad, lit(0)}}}
	opt := Optimize(node, DefaultOptions())
	if !strings.Contains(opt.(*plan.Filter).Pred.String(), "SQRT") {
		t.Error("failed fold should keep the original call")
	}
}

func TestMemoStripping(t *testing.T) {
	sub := &plan.Subquery{
		Plan: &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: "v", Typ: intT()}}}},
		Mode: plan.SubScalar,
		Typ:  intT(),
		Memo: true,
	}
	node := &plan.Filter{
		Input: &plan.Values{Sch: &plan.Schema{}},
		Pred: &plan.Call{Name: "=", Typ: sqltypes.Type{Kind: sqltypes.KindBool},
			Args: []plan.Expr{sub, lit(1)}},
	}
	stripped := Optimize(node, Options{FoldConstants: false, MemoizeSubqueries: false})
	found := false
	plan.WalkExprs(stripped.(*plan.Filter).Pred, func(e plan.Expr) {
		if sq, ok := e.(*plan.Subquery); ok {
			found = true
			if sq.Memo {
				t.Error("memo flag should be stripped")
			}
		}
	})
	if !found {
		t.Fatal("subquery lost")
	}
	// And the original is untouched (copy-on-write).
	if !sub.Memo {
		t.Error("original plan mutated")
	}
}

func TestPushDownThroughProject(t *testing.T) {
	base := &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}}}}
	proj := &plan.Project{
		Input: base,
		Exprs: []plan.NamedExpr{{
			Expr: &plan.Call{Name: "+", Args: []plan.Expr{&plan.ColRef{Index: 0, Name: "a", Typ: intT()}, lit(1)}, Typ: intT()},
			Col:  plan.Col{Name: "b", Typ: intT()},
		}},
		Sch: &plan.Schema{Cols: []plan.Col{{Name: "b", Typ: intT()}}},
	}
	f := &plan.Filter{Input: proj, Pred: &plan.Call{
		Name: ">", Typ: sqltypes.Type{Kind: sqltypes.KindBool},
		Args: []plan.Expr{&plan.ColRef{Index: 0, Name: "b", Typ: intT()}, lit(5)},
	}}
	out := Optimize(f, Options{PushDownFilters: true})
	top, ok := out.(*plan.Project)
	if !ok {
		t.Fatalf("filter should sink below the projection, top is %T", out)
	}
	inner, ok := top.Input.(*plan.Filter)
	if !ok {
		t.Fatalf("missing pushed filter, got %T", top.Input)
	}
	if !strings.Contains(inner.Pred.String(), "+($0:a, 1)") {
		t.Errorf("predicate not substituted: %s", inner.Pred)
	}
}

func TestPushDownIntoInnerJoin(t *testing.T) {
	mk := func(name string) *plan.Values {
		return &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: name, Typ: intT()}}}}
	}
	join := &plan.Join{
		Kind: plan.JoinInner, Left: mk("l"), Right: mk("r"),
		EquiLeft:  []plan.Expr{&plan.ColRef{Index: 0, Name: "l", Typ: intT()}},
		EquiRight: []plan.Expr{&plan.ColRef{Index: 0, Name: "r", Typ: intT()}},
		Sch:       &plan.Schema{Cols: []plan.Col{{Name: "l", Typ: intT()}, {Name: "r", Typ: intT()}}},
	}
	boolT := sqltypes.Type{Kind: sqltypes.KindBool}
	pred := &plan.And{
		L: &plan.Call{Name: ">", Typ: boolT, Args: []plan.Expr{&plan.ColRef{Index: 0, Name: "l", Typ: intT()}, lit(1)}},
		R: &plan.Call{Name: "<", Typ: boolT, Args: []plan.Expr{&plan.ColRef{Index: 1, Name: "r", Typ: intT()}, lit(9)}},
	}
	out := Optimize(&plan.Filter{Input: join, Pred: pred}, Options{PushDownFilters: true})
	j, ok := out.(*plan.Join)
	if !ok {
		t.Fatalf("both conjuncts should push, leaving the join on top; got %T", out)
	}
	lf, ok := j.Left.(*plan.Filter)
	if !ok || !strings.Contains(lf.Pred.String(), "$0:l") {
		t.Errorf("left side filter: %v", j.Left)
	}
	rf, ok := j.Right.(*plan.Filter)
	if !ok || !strings.Contains(rf.Pred.String(), "$0:r") {
		t.Errorf("right side filter should rebase the column: %v", j.Right)
	}
}

func TestPushDownRespectsOuterJoin(t *testing.T) {
	mk := func(name string) *plan.Values {
		return &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: name, Typ: intT()}}}}
	}
	join := &plan.Join{
		Kind: plan.JoinLeft, Left: mk("l"), Right: mk("r"),
		Sch: &plan.Schema{Cols: []plan.Col{{Name: "l", Typ: intT()}, {Name: "r", Typ: intT()}}},
	}
	pred := &plan.IsNull{X: &plan.ColRef{Index: 1, Name: "r", Typ: intT()}}
	out := Optimize(&plan.Filter{Input: join, Pred: pred}, Options{PushDownFilters: true})
	if _, ok := out.(*plan.Filter); !ok {
		t.Fatalf("filter over LEFT JOIN must stay put, got %T", out)
	}
}

// TestRulesDescendIntoSubqueryPlans: a filter over an inner join held by
// a subquery expression is pushed down exactly like the same filter in
// the main plan, at any nesting depth, with the same Report counter.
func TestRulesDescendIntoSubqueryPlans(t *testing.T) {
	boolT := sqltypes.Type{Kind: sqltypes.KindBool}
	mk := func(name string) *plan.Values {
		return &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: name, Typ: intT()}}}}
	}
	filteredJoin := func(extra plan.Expr) plan.Node {
		join := &plan.Join{
			Kind: plan.JoinInner, Left: mk("l"), Right: mk("r"),
			EquiLeft:  []plan.Expr{&plan.ColRef{Index: 0, Name: "l", Typ: intT()}},
			EquiRight: []plan.Expr{&plan.ColRef{Index: 0, Name: "r", Typ: intT()}},
			Sch:       &plan.Schema{Cols: []plan.Col{{Name: "l", Typ: intT()}, {Name: "r", Typ: intT()}}},
		}
		var pred plan.Expr = &plan.And{
			L: &plan.Call{Name: ">", Typ: boolT, Args: []plan.Expr{&plan.ColRef{Index: 0, Name: "l", Typ: intT()}, lit(13)}},
			// The correlated conjunct reads the left side only, so it
			// moves with it: per context the join sees filtered rows.
			R: &plan.IsDistinct{Neg: true, L: &plan.ColRef{Index: 0, Name: "l", Typ: intT()},
				R: &plan.CorrRef{Levels: 1, Index: 0, Name: "y", Typ: intT()}},
		}
		if extra != nil {
			pred = &plan.And{L: pred, R: extra}
		}
		return &plan.Filter{Input: join, Pred: pred}
	}
	inner := &plan.Subquery{Plan: filteredJoin(nil), Mode: plan.SubExists, Typ: boolT, Memo: true}
	outer := &plan.Subquery{Plan: filteredJoin(inner), Mode: plan.SubExists, Typ: boolT, Memo: true}
	main := &plan.Filter{Input: mk("y"), Pred: outer}

	out, rep := OptimizeWithReport(main, Options{PushDownFilters: true})
	if rep.FilterPushdowns != 4 {
		t.Errorf("FilterPushdowns = %d, want 2 conjuncts in each of the 2 subquery plans", rep.FilterPushdowns)
	}
	var check func(sq *plan.Subquery, depth int)
	check = func(sq *plan.Subquery, depth int) {
		var join *plan.Join
		switch top := sq.Plan.(type) {
		case *plan.Join:
			join = top
		case *plan.Filter: // the conjunct holding the nested subquery stays above
			join, _ = top.Input.(*plan.Join)
			plan.WalkExprs(top.Pred, func(e plan.Expr) {
				if nested, ok := e.(*plan.Subquery); ok {
					check(nested, depth+1)
				}
			})
		}
		if join == nil {
			t.Fatalf("depth %d: no join under the subquery plan:\n%s", depth, plan.ExplainTree(sq.Plan))
		}
		lf, ok := join.Left.(*plan.Filter)
		if !ok || !strings.Contains(lf.Pred.String(), "corr^1$0:y") || !strings.Contains(lf.Pred.String(), ">($0:l, 13)") {
			t.Errorf("depth %d: both conjuncts must sit on the join's left input:\n%s", depth, plan.ExplainTree(sq.Plan))
		}
	}
	check(out.(*plan.Filter).Pred.(*plan.Subquery), 1)
	if _, ok := outer.Plan.(*plan.Filter).Input.(*plan.Join).Left.(*plan.Values); !ok {
		t.Error("original plan mutated")
	}

	// The rule's own switch still governs subquery plans.
	if _, rep := OptimizeWithReport(main, Options{}); rep.FilterPushdowns != 0 {
		t.Errorf("pushdown ran in a subquery plan despite being disabled: %d", rep.FilterPushdowns)
	}
}

func TestMergeProjectIntoAggregate(t *testing.T) {
	base := &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}, {Name: "b", Typ: intT()}}}}
	a := &plan.ColRef{Index: 0, Name: "a", Typ: intT()}
	b := &plan.ColRef{Index: 1, Name: "b", Typ: intT()}
	mkProj := func(third plan.Expr) *plan.Project {
		cols := []plan.Col{{Name: "b", Typ: intT()}, {Name: "a2", Typ: intT()}, {Name: "x", Typ: third.Type()}}
		return &plan.Project{
			Input: base,
			Exprs: []plan.NamedExpr{
				{Expr: b, Col: cols[0]},
				{Expr: &plan.Call{Name: "*", Args: []plan.Expr{a, lit(2)}, Typ: intT()}, Col: cols[1]},
				{Expr: third, Col: cols[2]},
			},
			Sch: &plan.Schema{Cols: cols},
		}
	}
	mkAgg := func(in plan.Node) *plan.Aggregate {
		return &plan.Aggregate{
			Input:      in,
			GroupExprs: []plan.Expr{&plan.ColRef{Index: 0, Name: "b", Typ: intT()}},
			Sets:       [][]int{{0}},
			Aggs: []plan.AggCall{{Name: "SUM", KeyIndex: -1, Typ: intT(),
				Args:   []plan.Expr{&plan.ColRef{Index: 1, Name: "a2", Typ: intT()}},
				Filter: &plan.Call{Name: ">", Typ: sqltypes.Type{Kind: sqltypes.KindBool}, Args: []plan.Expr{&plan.ColRef{Index: 1, Name: "a2", Typ: intT()}, lit(0)}}}},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "b", Typ: intT()}, {Name: "s", Typ: intT()}}},
		}
	}

	out, rep := OptimizeWithReport(mkAgg(mkProj(&plan.Lit{Val: sqltypes.Null(sqltypes.KindInt)})), Options{PushDownFilters: true})
	agg := out.(*plan.Aggregate)
	if _, ok := agg.Input.(*plan.Values); !ok || rep.ProjectMerges != 1 {
		t.Fatalf("projection must merge away (merges=%d):\n%s", rep.ProjectMerges, plan.ExplainTree(out))
	}
	if got := agg.Explain(); got != "Aggregate by [$1:b] aggs [SUM(*($0:a, 2)) FILTER (>(*($0:a, 2), 0))]" {
		t.Errorf("substituted aggregate: %s", got)
	}
	if len(agg.Sch.Cols) != 2 {
		t.Error("output schema must not change")
	}

	// A volatile or subquery-bearing projection stays: dropping or
	// duplicating its evaluation would be observable.
	for name, third := range map[string]plan.Expr{
		"volatile": &plan.Call{Name: "RANDOM", Typ: sqltypes.Type{Kind: sqltypes.KindFloat}},
		"subquery": &plan.Subquery{Plan: base, Mode: plan.SubExists, Typ: sqltypes.Type{Kind: sqltypes.KindBool}},
	} {
		out, rep := OptimizeWithReport(mkAgg(mkProj(third)), Options{PushDownFilters: true})
		if !isProject(out.(*plan.Aggregate).Input) || rep.ProjectMerges != 0 {
			t.Errorf("%s projection must not merge:\n%s", name, plan.ExplainTree(out))
		}
	}
	// So does one read by an aggregate expression that holds a subquery
	// (its correlated references index the projected row).
	withSub := mkAgg(mkProj(lit(1)))
	withSub.Aggs[0].Filter = &plan.Subquery{Plan: base, Mode: plan.SubExists, Typ: sqltypes.Type{Kind: sqltypes.KindBool}}
	if out := Optimize(withSub, Options{PushDownFilters: true}); !isProject(out.(*plan.Aggregate).Input) {
		t.Errorf("aggregate with a subquery must keep its projection:\n%s", plan.ExplainTree(out))
	}
	// Off with the rule family's switch.
	if out := Optimize(mkAgg(mkProj(lit(1))), Options{}); !isProject(out.(*plan.Aggregate).Input) {
		t.Error("merge ran despite PushDownFilters being off")
	}
}

func isProject(n plan.Node) bool {
	_, ok := n.(*plan.Project)
	return ok
}
