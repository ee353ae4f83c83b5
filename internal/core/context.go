// Package core implements the paper's central semantic machinery:
// evaluation contexts for context-sensitive expressions (CSEs), the AT
// context-transformation operator's modifiers (Table 3 of the paper),
// CURRENT-dimension resolution, and the assembly of a context into the
// row predicate that parameterizes a measure's auxiliary compute function
// (§4.2).
//
// A Context is a conjunction of terms over the measure's base relation.
// Each term is one of:
//
//   - DimEq:  dimExpr IS NOT DISTINCT FROM <value from the call site>,
//     optionally guarded by a GROUPING indicator so that ROLLUP
//     super-aggregate rows drop the constraint;
//   - Pred:   an arbitrary predicate over base columns (from the VISIBLE
//     modifier's residual WHERE clause, or an AT (WHERE ...) modifier);
//   - Link:   a term restricting the base rows to those the current
//     group's rows of the query's FROM + WHERE came from — this is what
//     keeps measures at their own grain under joins (paper §3.6). The
//     measure reads exactly those rows, by position (plan.LinkRead).
//
// The binder builds a default Context for each call site, applies the
// AT modifiers in order, and then calls Predicate to reify the context
// as a plan expression over the base row (with correlated references to
// the call-site row), exactly the paper's rowPredicate lambda.
package core

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// TermKind classifies a context term.
type TermKind uint8

const (
	// TermDimEq constrains a dimension to a call-site value.
	TermDimEq TermKind = iota
	// TermPred is an arbitrary predicate over base columns.
	TermPred
	// TermLink restricts the base rows to the group's, by position.
	TermLink
)

// Term is one conjunct of an evaluation context.
type Term struct {
	Kind TermKind

	// Dim is the dimension name for DimEq terms (dimension column name or
	// ad hoc dimension alias). Empty for Pred/Link terms.
	Dim string
	// BaseExpr is the dimension expression over the base row (DimEq).
	BaseExpr plan.Expr
	// Value is the call-site value expression; references to the call-site
	// row are CorrRefs at level 1 relative to the measure subquery (DimEq).
	Value plan.Expr
	// Grouping, if non-nil, is a call-site expression yielding the
	// GROUPING indicator for this dimension; when it is non-zero the term
	// is disabled (ROLLUP super-aggregate rows).
	Grouping plan.Expr

	// Pred is the predicate over the base row (Pred terms).
	Pred plan.Expr

	// LinkRead and LinkBottom implement Link terms: the read replaces
	// the node LinkBottom of the measure's base relation (readAt).
	LinkRead   *plan.LinkRead
	LinkBottom plan.Node
}

// Context is an evaluation context: the conjunction of Terms. The zero
// value is the TRUE context (no constraints).
type Context struct {
	Terms []Term
}

// Clone returns a shallow copy whose Terms slice is independent.
func (c *Context) Clone() *Context {
	out := &Context{Terms: make([]Term, len(c.Terms))}
	copy(out.Terms, c.Terms)
	return out
}

// Clear removes every term ("AT (ALL)" — the measure is evaluated over
// its entire base table).
func (c *Context) Clear() { c.Terms = nil }

// RemoveDim removes DimEq terms on the named dimension ("AT (ALL dim)").
// It reports whether any term was removed.
func (c *Context) RemoveDim(dim string) bool {
	removed := false
	out := c.Terms[:0]
	for _, t := range c.Terms {
		if t.Kind == TermDimEq && strings.EqualFold(t.Dim, dim) {
			removed = true
			continue
		}
		out = append(out, t)
	}
	c.Terms = out
	return removed
}

// SetDim implements "AT (SET dim = value)": any existing terms on the
// dimension are removed and the new constraint is appended.
func (c *Context) SetDim(dim string, baseExpr, value plan.Expr) {
	c.RemoveDim(dim)
	c.Terms = append(c.Terms, Term{
		Kind:     TermDimEq,
		Dim:      dim,
		BaseExpr: baseExpr,
		Value:    value,
	})
}

// AddPred appends a predicate term (VISIBLE residuals).
func (c *Context) AddPred(pred plan.Expr) {
	c.Terms = append(c.Terms, Term{Kind: TermPred, Pred: pred})
}

// AddLinkRead appends a link term: read replaces the node bottom of the
// measure's base relation.
func (c *Context) AddLinkRead(read *plan.LinkRead, bottom plan.Node) {
	c.Terms = append(c.Terms, Term{Kind: TermLink, LinkRead: read, LinkBottom: bottom})
}

// ReplaceWith implements "AT (WHERE pred)": the context becomes exactly
// the given predicate (paper Table 3: "Sets the evaluation context to
// predicate").
func (c *Context) ReplaceWith(pred plan.Expr) {
	c.Terms = []Term{{Kind: TermPred, Pred: pred}}
}

// CurrentValue resolves "CURRENT dim": the call-site value expression the
// dimension is currently constrained to, guarded so that it yields NULL
// when the constraint is disabled by GROUPING. Returns nil if the
// dimension is unconstrained (the paper specifies NULL in that case; the
// caller substitutes a NULL literal).
func (c *Context) CurrentValue(dim string) plan.Expr {
	for _, t := range c.Terms {
		if t.Kind == TermDimEq && strings.EqualFold(t.Dim, dim) {
			if t.Grouping == nil {
				return t.Value
			}
			// CASE WHEN grouping <> 0 THEN NULL ELSE value END
			return &plan.Case{
				Whens: []plan.CaseWhen{{
					Cond: &plan.Call{
						Name: "<>",
						Args: []plan.Expr{t.Grouping, &plan.Lit{Val: sqltypes.NewInt(0)}},
						Typ:  sqltypes.Type{Kind: sqltypes.KindBool},
					},
					Then: &plan.Lit{Val: sqltypes.Null(t.Value.Type().Kind)},
				}},
				Else: t.Value,
				Typ:  t.Value.Type().Scalar(),
			}
		}
	}
	return nil
}

// Predicate reifies the context as a single boolean expression over the
// measure's base row. It is the paper's rowPredicate: the only thing a
// measure "cares about ... do I include this row in the total, or not?"
// (§3.5). A nil result means TRUE (no filtering needed). It fails if a
// surviving term constrains a dimension that is not derivable from the
// base table (BaseExpr nil). A link adds no conjunct: the measure reads
// only the linked rows (BuildMeasureSubquery).
func (c *Context) Predicate() (plan.Expr, error) {
	var conj plan.Expr
	and := func(e plan.Expr) {
		if conj == nil {
			conj = e
		} else {
			conj = &plan.And{L: conj, R: e}
		}
	}
	for _, t := range c.Terms {
		switch t.Kind {
		case TermDimEq:
			if t.BaseExpr == nil {
				return nil, fmt.Errorf("dimension %s is constrained by the evaluation context but is not derivable from the measure's base table", t.Dim)
			}
			eq := plan.Expr(&plan.IsDistinct{L: t.BaseExpr, R: t.Value, Neg: true})
			if t.Grouping != nil {
				// grouping <> 0 OR dim IS NOT DISTINCT FROM value
				eq = &plan.Or{
					L: &plan.Call{
						Name: "<>",
						Args: []plan.Expr{t.Grouping, &plan.Lit{Val: sqltypes.NewInt(0)}},
						Typ:  sqltypes.Type{Kind: sqltypes.KindBool},
					},
					R: eq,
				}
			}
			and(eq)
		case TermPred:
			and(t.Pred)
		}
	}
	return conj, nil
}

// Describe renders the context for diagnostics and EXPLAIN output.
func (c *Context) Describe() string {
	if len(c.Terms) == 0 {
		return "TRUE"
	}
	parts := make([]string, 0, len(c.Terms))
	for _, t := range c.Terms {
		switch t.Kind {
		case TermDimEq:
			g := ""
			if t.Grouping != nil {
				g = " (unless rolled up)"
			}
			parts = append(parts, fmt.Sprintf("%s = %s%s", t.Dim, t.Value, g))
		case TermPred:
			parts = append(parts, t.Pred.String())
		case TermLink:
			parts = append(parts, "linked to the group's rows by position")
		}
	}
	return strings.Join(parts, " AND ")
}

// readAt returns base, a chain of Filters and Projects over bottom, with
// bottom replaced by read. The Projects run again over the linked rows,
// lifted into the measure subquery's frame (lift); the Filters do not
// run: each linked row passed every one of them, or the WHERE clause it
// restates, in the relation's plan.
func readAt(base, bottom plan.Node, read *plan.LinkRead) plan.Node {
	switch n := base.(type) {
	case *plan.Filter:
		if n != bottom {
			return readAt(n.Input, bottom, read)
		}
	case *plan.Project:
		if n != bottom {
			c := *lift(n).(*plan.Project)
			c.Input = readAt(n.Input, bottom, read)
			return &c
		}
	}
	return read
}

// lift returns n as the measure subquery runs it. n was bound in the
// measure's relation, where the enclosing query's rows are as many
// frames away as they are from the query over it; the subquery puts its
// own frame in between, so each reference to an enclosing row gains a
// level.
func lift(n plan.Node) plan.Node {
	if !plan.PlanHasOuterRefs(n, 0) {
		return n
	}
	return plan.ShiftOuterRefs(n, 1)
}

// BuildMeasureSubquery assembles the correlated scalar subquery that
// evaluates measure info in context c — the paper's §4.2 expansion:
//
//	(SELECT <formula> FROM <base> WHERE <context predicate>)
//
// The subquery aggregates the filtered base rows with a single global
// group (so an empty context slice means "whole table") and projects the
// formula over the aggregate outputs. Memoization is enabled so repeated
// evaluation in the same context costs one scan (the "localized
// self-join" strategy, §5.1); the optimizer may disable it for ablation.
func BuildMeasureSubquery(info *plan.MeasureInfo, c *Context) (*plan.Subquery, error) {
	pred, err := c.Predicate()
	if err != nil {
		return nil, fmt.Errorf("measure %s: %v", info.Name, err)
	}
	input := lift(info.Base)
	for _, t := range c.Terms {
		if t.LinkRead != nil {
			input = readAt(info.Base, t.LinkBottom, t.LinkRead)
		}
	}
	if pred != nil {
		input = &plan.Filter{Input: input, Pred: pred}
	}
	aggSchema := &plan.Schema{}
	for _, a := range info.Aggs {
		aggSchema.Cols = append(aggSchema.Cols, plan.Col{Name: strings.ToLower(a.Name), Typ: a.Typ})
	}
	agg := &plan.Aggregate{
		Input: input,
		Sets:  [][]int{{}},
		Aggs:  info.Aggs,
		Sch:   aggSchema,
	}
	// With no group keys the i-th aggregate is output column i.
	formula := plan.ReplaceAggRefs(info.Formula, func(ar *plan.AggRef) plan.Expr {
		return &plan.ColRef{Index: ar.Index, Name: fmt.Sprintf("agg%d", ar.Index), Typ: ar.Typ}
	})
	proj := &plan.Project{
		Input: agg,
		Exprs: []plan.NamedExpr{{Expr: formula, Col: plan.Col{Name: info.Name, Typ: info.ValueType}}},
		Sch:   &plan.Schema{Cols: []plan.Col{{Name: info.Name, Typ: info.ValueType}}},
	}
	return &plan.Subquery{
		Plan:  proj,
		Mode:  plan.SubScalar,
		Typ:   info.ValueType,
		Memo:  true,
		Label: "measure " + info.Name + " at " + c.Describe(),
	}, nil
}
