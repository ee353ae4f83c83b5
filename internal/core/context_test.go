package core

import (
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

func colRef(i int, name string) *plan.ColRef {
	return &plan.ColRef{Index: i, Name: name, Typ: sqltypes.Type{Kind: sqltypes.KindString}}
}

func corrRef(i int, name string) *plan.CorrRef {
	return &plan.CorrRef{Levels: 1, Index: i, Name: name, Typ: sqltypes.Type{Kind: sqltypes.KindString}}
}

func dimTerm(dim string, baseIdx, corrIdx int) Term {
	return Term{
		Kind:     TermDimEq,
		Dim:      dim,
		BaseExpr: colRef(baseIdx, dim),
		Value:    corrRef(corrIdx, dim),
	}
}

func TestRemoveDim(t *testing.T) {
	c := &Context{Terms: []Term{dimTerm("a", 0, 0), dimTerm("b", 1, 1)}}
	if !c.RemoveDim("A") { // case-insensitive
		t.Fatal("RemoveDim should report removal")
	}
	if len(c.Terms) != 1 || c.Terms[0].Dim != "b" {
		t.Fatalf("terms after removal: %+v", c.Terms)
	}
	if c.RemoveDim("missing") {
		t.Error("removing a missing dim should report false")
	}
}

func TestSetDimReplaces(t *testing.T) {
	c := &Context{Terms: []Term{dimTerm("y", 0, 0)}}
	newVal := &plan.Lit{Val: sqltypes.NewInt(2023)}
	c.SetDim("y", colRef(0, "y"), newVal)
	if len(c.Terms) != 1 {
		t.Fatalf("SET must replace, got %d terms", len(c.Terms))
	}
	if c.Terms[0].Value != newVal {
		t.Error("SET did not install the new value")
	}
}

func TestClearAndReplace(t *testing.T) {
	c := &Context{Terms: []Term{dimTerm("a", 0, 0)}}
	c.Clear()
	if len(c.Terms) != 0 {
		t.Fatal("Clear failed")
	}
	pred := &plan.IsNull{X: colRef(0, "a")}
	c.AddPred(colRef(0, "x"))
	c.ReplaceWith(pred)
	if len(c.Terms) != 1 || c.Terms[0].Kind != TermPred || c.Terms[0].Pred != pred {
		t.Fatalf("ReplaceWith: %+v", c.Terms)
	}
}

func TestCurrentValue(t *testing.T) {
	c := &Context{Terms: []Term{dimTerm("y", 0, 3)}}
	v := c.CurrentValue("Y")
	if v == nil {
		t.Fatal("CurrentValue should find the term")
	}
	if cr, ok := v.(*plan.CorrRef); !ok || cr.Index != 3 {
		t.Fatalf("CurrentValue = %v", v)
	}
	if c.CurrentValue("other") != nil {
		t.Error("unconstrained dim should yield nil")
	}
	// Grouping-guarded term wraps in CASE.
	g := &Context{Terms: []Term{{
		Kind: TermDimEq, Dim: "y",
		BaseExpr: colRef(0, "y"),
		Value:    corrRef(0, "y"),
		Grouping: corrRef(5, "grouping"),
	}}}
	if _, ok := g.CurrentValue("y").(*plan.Case); !ok {
		t.Errorf("guarded CurrentValue should be a CASE, got %v", g.CurrentValue("y"))
	}
}

func TestPredicateAssembly(t *testing.T) {
	empty := &Context{}
	pred, err := empty.Predicate()
	if err != nil || pred != nil {
		t.Fatalf("empty context predicate: %v, %v", pred, err)
	}

	c := &Context{Terms: []Term{dimTerm("a", 0, 0), dimTerm("b", 1, 1)}}
	pred, err = c.Predicate()
	if err != nil {
		t.Fatal(err)
	}
	and, ok := pred.(*plan.And)
	if !ok {
		t.Fatalf("two terms should conjoin, got %T", pred)
	}
	if _, ok := and.L.(*plan.IsDistinct); !ok {
		t.Errorf("term should be IS NOT DISTINCT FROM, got %T", and.L)
	}

	// Grouping-guarded term becomes (grouping <> 0 OR eq).
	g := &Context{Terms: []Term{{
		Kind: TermDimEq, Dim: "a",
		BaseExpr: colRef(0, "a"), Value: corrRef(0, "a"),
		Grouping: corrRef(7, "grouping"),
	}}}
	pred, err = g.Predicate()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pred.(*plan.Or); !ok {
		t.Fatalf("guarded term should be OR, got %T", pred)
	}

	// Non-derivable dimension errors only when constrained.
	bad := &Context{Terms: []Term{{Kind: TermDimEq, Dim: "ghost", Value: corrRef(0, "ghost")}}}
	if _, err := bad.Predicate(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("expected non-derivable error, got %v", err)
	}
	bad.RemoveDim("ghost")
	if p, err := bad.Predicate(); err != nil || p != nil {
		t.Errorf("after removal the context is TRUE, got %v %v", p, err)
	}
}

// TestPredicateLinkTerm: a link adds no conjunct to the predicate; the
// measure reads the linked rows in place of its base's bottom, under the
// base's Projects and without its Filters, which the linked rows passed.
func TestPredicateLinkTerm(t *testing.T) {
	intT := sqltypes.Type{Kind: sqltypes.KindInt}
	bottom := &plan.Values{Sch: &plan.Schema{Cols: []plan.Col{{Name: "x", Typ: intT}}}}
	proj := &plan.Project{Input: bottom, Sch: bottom.Sch,
		Exprs: []plan.NamedExpr{{Expr: &plan.ColRef{Index: 0, Name: "x", Typ: intT}, Col: bottom.Sch.Cols[0]}}}
	base := &plan.Filter{Input: proj, Pred: &plan.IsNull{X: colRef(0, "x")}}
	read := &plan.LinkRead{Link: &plan.RowLink{}, Group: corrRef(1, "positions"), Sch: bottom.Sch}
	c := &Context{}
	c.AddLinkRead(read, bottom)
	if pred, err := c.Predicate(); err != nil || pred != nil {
		t.Fatalf("a link adds no conjunct, got %v %v", pred, err)
	}
	info := &plan.MeasureInfo{Name: "m", ValueType: intT, Base: base,
		Formula: &plan.AggRef{Index: 0, Typ: intT},
		Aggs:    []plan.AggCall{{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT}}}
	sq, err := BuildMeasureSubquery(info, c)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := sq.Plan.(*plan.Project).Input.(*plan.Aggregate).Input.(*plan.Project)
	if !ok || p == proj || p.Input != read {
		t.Fatalf("the linked rows must replace the base's bottom under its Project alone:\n%s", plan.ExplainTree(sq.Plan))
	}
}

func TestDescribe(t *testing.T) {
	c := &Context{}
	if c.Describe() != "TRUE" {
		t.Errorf("empty context describes as %q", c.Describe())
	}
	c.Terms = []Term{dimTerm("a", 0, 0)}
	c.AddPred(&plan.IsNull{X: colRef(1, "b")})
	c.AddLinkRead(&plan.LinkRead{Link: &plan.RowLink{}, Group: corrRef(1, "positions")}, nil)
	d := c.Describe()
	for _, want := range []string{"a =", "IS NULL", "linked"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe %q missing %q", d, want)
		}
	}
}

func TestBuildMeasureSubquery(t *testing.T) {
	base := &plan.Values{
		Rows: nil,
		Sch:  &plan.Schema{Cols: []plan.Col{{Name: "x", Typ: sqltypes.Type{Kind: sqltypes.KindInt}}}},
	}
	info := &plan.MeasureInfo{
		Name:      "m",
		ValueType: sqltypes.Type{Kind: sqltypes.KindInt},
		Base:      base,
		Formula:   &plan.AggRef{Index: 0, Typ: sqltypes.Type{Kind: sqltypes.KindInt}},
		Aggs: []plan.AggCall{{
			Name: "SUM",
			Args: []plan.Expr{&plan.ColRef{Index: 0, Name: "x", Typ: sqltypes.Type{Kind: sqltypes.KindInt}}},
			Typ:  sqltypes.Type{Kind: sqltypes.KindInt},
		}},
		Dims: []plan.Dim{{Name: "x", Expr: colRef(0, "x")}},
	}

	// Empty context: Base feeds the aggregate directly.
	sq, err := BuildMeasureSubquery(info, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := sq.Plan.(*plan.Project)
	if !ok {
		t.Fatalf("plan root should be Project, got %T", sq.Plan)
	}
	agg, ok := proj.Input.(*plan.Aggregate)
	if !ok || agg.Input != base {
		t.Fatalf("empty context must not add a Filter: %T", proj.Input)
	}
	if len(agg.Sets) != 1 || len(agg.Sets[0]) != 0 {
		t.Errorf("measure aggregate must be a single global group: %v", agg.Sets)
	}
	if !sq.Memo || sq.Mode != plan.SubScalar {
		t.Error("measure subquery must be a memoized scalar subquery")
	}

	// Constrained context adds the Filter.
	c := &Context{Terms: []Term{dimTerm("x", 0, 0)}}
	sq, err = BuildMeasureSubquery(info, c)
	if err != nil {
		t.Fatal(err)
	}
	proj = sq.Plan.(*plan.Project)
	if _, ok := proj.Input.(*plan.Aggregate).Input.(*plan.Filter); !ok {
		t.Error("constrained context must filter the base")
	}
	if !strings.Contains(sq.Label, "measure m") {
		t.Errorf("label: %q", sq.Label)
	}

	// Constraining a non-derivable dimension fails.
	badCtx := &Context{Terms: []Term{{Kind: TermDimEq, Dim: "ghost", Value: corrRef(0, "g")}}}
	if _, err := BuildMeasureSubquery(info, badCtx); err == nil {
		t.Error("expected error for non-derivable dimension")
	}
}
