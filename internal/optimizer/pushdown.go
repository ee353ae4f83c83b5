package optimizer

import (
	"github.com/measures-sql/msql/internal/plan"
)

// Predicate pushdown: move Filter conjuncts toward the data. Three
// rewrites, applied to fixpoint:
//
//	Filter(Filter(X))          → Filter(X) with merged predicate
//	Filter(Project(X))         → Project(Filter'(X)) when every column the
//	                             predicate reads maps through projection
//	                             expressions (substituted in)
//	Filter(InnerJoin(L, R))    → conjuncts that read only one side move
//	                             into that side
//
// Outer joins keep their filters (null-extended rows make pushing
// unsound in general), and predicates containing subqueries stay put to
// avoid duplicating their evaluation.
//
// The same substitution, applied upwards, removes a projection that only
// feeds an aggregation:
//
//	Aggregate(Project(X))      → Aggregate'(X) with the projection's
//	                             expressions substituted into the group
//	                             keys and aggregate arguments
//
// so a view's full SELECT list is not materialized per input row when
// the aggregate reads two or three of its columns.
func pushDown(n plan.Node, rep *Report) plan.Node {
	switch n := n.(type) {
	case *plan.Filter:
		return pushFilter(n, rep)
	case *plan.Aggregate:
		c := *n
		c.Input = pushDown(n.Input, rep)
		return mergeProject(&c, rep)
	default:
		return copyWithChildren(n, func(c plan.Node) plan.Node { return pushDown(c, rep) })
	}
}

func pushFilter(f *plan.Filter, rep *Report) plan.Node {
	input := pushDown(f.Input, rep)
	pred := f.Pred

	for {
		switch in := input.(type) {
		case *plan.Filter:
			pred = &plan.And{L: in.Pred, R: pred}
			input = in.Input
			continue

		case *plan.Project:
			sub, ok := substituteThroughProject(pred, in)
			if !ok {
				return &plan.Filter{Input: input, Pred: pred}
			}
			rep.FilterPushdowns += len(plan.SplitConj(pred))
			inner := pushFilter(&plan.Filter{Input: in.Input, Pred: sub}, rep)
			c := *in
			c.Input = inner
			return &c

		case *plan.Join:
			if in.Kind != plan.JoinInner && in.Kind != plan.JoinCross {
				return &plan.Filter{Input: input, Pred: pred}
			}
			leftWidth := len(in.Left.Schema().Cols)
			totalWidth := leftWidth + len(in.Right.Schema().Cols)
			var leftPreds, rightPreds, keep []plan.Expr
			for _, conj := range plan.SplitConj(pred) {
				side, pushable := conjunctSide(conj, leftWidth, totalWidth)
				switch {
				case !pushable:
					keep = append(keep, conj)
				case side == 0:
					leftPreds = append(leftPreds, conj)
				case side == 1:
					rightPreds = append(rightPreds, shiftToRight(conj, leftWidth))
				default:
					keep = append(keep, conj)
				}
			}
			if len(leftPreds) == 0 && len(rightPreds) == 0 {
				return &plan.Filter{Input: input, Pred: pred}
			}
			rep.FilterPushdowns += len(leftPreds) + len(rightPreds)
			c := *in
			if len(leftPreds) > 0 {
				c.Left = pushFilter(&plan.Filter{Input: in.Left, Pred: conjoin(leftPreds)}, rep)
			}
			if len(rightPreds) > 0 {
				c.Right = pushFilter(&plan.Filter{Input: in.Right, Pred: conjoin(rightPreds)}, rep)
			}
			if len(keep) == 0 {
				return &c
			}
			return &plan.Filter{Input: &c, Pred: conjoin(keep)}

		default:
			return &plan.Filter{Input: input, Pred: pred}
		}
	}
}

// mergeProject folds the Project(s) directly beneath agg into it. The
// projection must be subquery-free and non-volatile — dropping or
// duplicating an evaluation must be unobservable — and every expression
// of the aggregate must substitute through it (none holds a subquery,
// whose correlated references would index the vanished row layout).
func mergeProject(agg *plan.Aggregate, rep *Report) plan.Node {
	for {
		proj, ok := agg.Input.(*plan.Project)
		if !ok {
			return agg
		}
		for _, ne := range proj.Exprs {
			if hasSubquery(ne.Expr) || !plan.ExprParallelSafe(ne.Expr) {
				return agg
			}
		}
		fits := true // every expression so far substituted through proj
		sub := func(e plan.Expr) plan.Expr {
			if e == nil || !fits {
				return e
			}
			out, ok := substituteThroughProject(e, proj)
			if !ok {
				fits = false
				return e
			}
			return out
		}
		subList := func(list []plan.Expr) []plan.Expr {
			if list == nil {
				return nil
			}
			out := make([]plan.Expr, len(list))
			for i, e := range list {
				out[i] = sub(e)
			}
			return out
		}
		c := *agg
		c.Input = proj.Input
		c.GroupExprs = subList(agg.GroupExprs)
		c.Aggs = make([]plan.AggCall, len(agg.Aggs))
		for i, a := range agg.Aggs {
			a.Args = subList(a.Args)
			a.WithinDistinct = subList(a.WithinDistinct)
			a.Filter = sub(a.Filter)
			c.Aggs[i] = a
		}
		if !fits {
			return agg
		}
		rep.ProjectMerges++
		agg = &c
	}
}

func hasSubquery(e plan.Expr) bool {
	found := false
	plan.WalkExprs(e, func(x plan.Expr) {
		if _, is := x.(*plan.Subquery); is {
			found = true
		}
	})
	return found
}

func conjoin(preds []plan.Expr) plan.Expr {
	out := preds[0]
	for _, p := range preds[1:] {
		out = &plan.And{L: out, R: p}
	}
	return out
}

// substituteThroughProject rewrites pred (over the projection's output)
// to read the projection's input. Fails when the predicate contains a
// subquery (avoid re-evaluating it in a larger row set... it is the same
// row count, but the correlation memo keys would change shape) or reads
// a projected expression that is itself a subquery.
func substituteThroughProject(pred plan.Expr, proj *plan.Project) (plan.Expr, bool) {
	if hasSubquery(pred) {
		return nil, false
	}
	ok := true
	out := plan.TransformExpr(pred, func(e plan.Expr) plan.Expr {
		cr, is := e.(*plan.ColRef)
		if !is {
			return e
		}
		if cr.Index < 0 || cr.Index >= len(proj.Exprs) {
			ok = false
			return e
		}
		repl := proj.Exprs[cr.Index].Expr
		if _, isSub := repl.(*plan.Subquery); isSub {
			ok = false
		}
		return repl
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// conjunctSide classifies which join side a conjunct reads: 0 left,
// 1 right, -1 both/none. Subqueries make it non-pushable (their memo
// dependencies are computed against the full row).
func conjunctSide(e plan.Expr, leftWidth, totalWidth int) (side int, pushable bool) {
	sawLeft, sawRight, sawSub := false, false, false
	plan.WalkExprs(e, func(x plan.Expr) {
		switch x := x.(type) {
		case *plan.ColRef:
			if x.Index < leftWidth {
				sawLeft = true
			} else if x.Index < totalWidth {
				sawRight = true
			}
		case *plan.Subquery:
			sawSub = true
		}
	})
	if sawSub || sawLeft == sawRight {
		return -1, false
	}
	if sawLeft {
		return 0, true
	}
	return 1, true
}

func shiftToRight(e plan.Expr, leftWidth int) plan.Expr {
	return plan.SubstituteCols(e, func(c *plan.ColRef) (plan.Expr, bool) {
		return &plan.ColRef{Index: c.Index - leftWidth, Name: c.Name, Typ: c.Typ}, true
	})
}
