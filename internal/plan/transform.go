package plan

// TransformExpr returns a copy of e with f applied bottom-up to every
// node (children first, then the rebuilt parent). Subquery plans are not
// descended into — only the Subquery node itself and its IN-tuple
// expressions are visited.
func TransformExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Call:
		c := *x
		c.Args = transformList(x.Args, f)
		return f(&c)
	case *And:
		c := *x
		c.L = TransformExpr(x.L, f)
		c.R = TransformExpr(x.R, f)
		return f(&c)
	case *Or:
		c := *x
		c.L = TransformExpr(x.L, f)
		c.R = TransformExpr(x.R, f)
		return f(&c)
	case *Not:
		c := *x
		c.X = TransformExpr(x.X, f)
		return f(&c)
	case *IsNull:
		c := *x
		c.X = TransformExpr(x.X, f)
		return f(&c)
	case *IsDistinct:
		c := *x
		c.L = TransformExpr(x.L, f)
		c.R = TransformExpr(x.R, f)
		return f(&c)
	case *InList:
		c := *x
		c.X = TransformExpr(x.X, f)
		c.List = transformList(x.List, f)
		return f(&c)
	case *Case:
		c := *x
		c.Whens = make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = CaseWhen{Cond: TransformExpr(w.Cond, f), Then: TransformExpr(w.Then, f)}
		}
		c.Else = TransformExpr(x.Else, f)
		return f(&c)
	case *Cast:
		c := *x
		c.X = TransformExpr(x.X, f)
		return f(&c)
	case *Subquery:
		c := *x
		c.Exprs = transformList(x.Exprs, f)
		return f(&c)
	default:
		return f(e)
	}
}

func transformList(list []Expr, f func(Expr) Expr) []Expr {
	if list == nil {
		return nil
	}
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = TransformExpr(e, f)
	}
	return out
}

// ShiftCorr raises every external reference in e by delta frames: ColRefs
// become CorrRef{delta} and existing CorrRefs gain delta levels. Used when
// an expression bound against a call-site row is moved inside a subquery
// (e.g. the value side of an evaluation-context term). e must not contain
// Subquery nodes (the binder rejects subqueries inside AT modifiers for
// this reason).
func ShiftCorr(e Expr, delta int) Expr {
	return TransformExpr(e, func(x Expr) Expr {
		switch x := x.(type) {
		case *ColRef:
			return &CorrRef{Levels: delta, Index: x.Index, Name: x.Name, Typ: x.Typ}
		case *CorrRef:
			return &CorrRef{Levels: x.Levels + delta, Index: x.Index, Name: x.Name, Typ: x.Typ}
		default:
			return x
		}
	})
}

// ShiftOuterRefs returns a copy of n to run delta frames further down:
// every reference to a row outside n, in its subquery plans too, gains
// delta levels.
func ShiftOuterRefs(n Node, delta int) Node {
	return TransformNodeExprs(n, func(e Expr, depth int) Expr {
		if c, ok := e.(*CorrRef); ok && c.Levels > depth {
			s := *c
			s.Levels += delta
			return &s
		}
		return e
	})
}

// SubstituteCols replaces every ColRef in e using m; refs absent from m
// are returned unchanged. CorrRefs are left alone.
func SubstituteCols(e Expr, m func(*ColRef) (Expr, bool)) Expr {
	return TransformExpr(e, func(x Expr) Expr {
		if cr, ok := x.(*ColRef); ok {
			if repl, ok := m(cr); ok {
				return repl
			}
		}
		return x
	})
}

// ReplaceAggRefs rewrites AggRef nodes (e.g. into ColRefs over an
// Aggregate node's output row).
func ReplaceAggRefs(e Expr, f func(*AggRef) Expr) Expr {
	return TransformExpr(e, func(x Expr) Expr {
		if ar, ok := x.(*AggRef); ok {
			return f(ar)
		}
		return x
	})
}

// SplitConj flattens a conjunction into its AND-ed parts, left to right.
func SplitConj(e Expr) []Expr { return appendConj(nil, e) }

func appendConj(out []Expr, e Expr) []Expr {
	if and, ok := e.(*And); ok {
		return appendConj(appendConj(out, and.L), and.R)
	}
	return append(out, e)
}

// HasCorrRefs reports whether e contains correlated references (at any
// level), not descending into nested subquery plans.
func HasCorrRefs(e Expr) bool {
	found := false
	WalkExprs(e, func(x Expr) {
		if _, ok := x.(*CorrRef); ok {
			found = true
		}
		if sq, ok := x.(*Subquery); ok && PlanHasOuterRefs(sq.Plan, 0) {
			found = true
		}
	})
	return found
}

// RowIndependent reports whether e reads nothing from the current row —
// no column, subquery or aggregate reference, nothing volatile — so it
// has one value per evaluation context. Correlated references and
// parameters are fine: the executor resolves them from the enclosing
// frames and the bindings.
func RowIndependent(e Expr) bool {
	ok := true
	WalkExprs(e, func(x Expr) {
		switch x.(type) {
		case *ColRef, *Subquery, *AggRef:
			ok = false
		}
	})
	return ok && ExprParallelSafe(e)
}

// RowOnly reports whether e reads nothing but the current row — no
// correlated, subquery or aggregate reference, nothing volatile — so two
// rows with equal columns give it equal values. Literals and parameters
// are constant for the statement and allowed.
func RowOnly(e Expr) bool {
	ok := true
	WalkExprs(e, func(x Expr) {
		switch x.(type) {
		case *CorrRef, *Subquery, *AggRef:
			ok = false
		}
	})
	return ok && ExprParallelSafe(e)
}

// PlanHasOuterRefs reports whether the plan refers to rows more than
// depth frames above it (depth 0 = the plan's own frame boundary).
func PlanHasOuterRefs(n Node, depth int) bool {
	found := false
	visitNodeExprs(n, func(e Expr) {
		WalkExprs(e, func(x Expr) {
			switch x := x.(type) {
			case *CorrRef:
				if x.Levels > depth {
					found = true
				}
			case *Subquery:
				if PlanHasOuterRefs(x.Plan, depth+1) {
					found = true
				}
			}
		})
	})
	if found {
		return true
	}
	for _, c := range n.Children() {
		if PlanHasOuterRefs(c, depth) {
			return true
		}
	}
	return false
}

// visitNodeExprs calls f for each expression held directly by node n
// (not its children).
func visitNodeExprs(n Node, f func(Expr)) {
	switch n := n.(type) {
	case *Filter:
		f(n.Pred)
	case *Project:
		for _, e := range n.Exprs {
			f(e.Expr)
		}
	case *Join:
		for _, e := range n.EquiLeft {
			f(e)
		}
		for _, e := range n.EquiRight {
			f(e)
		}
		if n.Residual != nil {
			f(n.Residual)
		}
	case *Aggregate:
		for _, e := range n.GroupExprs {
			f(e)
		}
		for _, a := range n.Aggs {
			for _, e := range a.Args {
				f(e)
			}
			for _, e := range a.WithinDistinct {
				f(e)
			}
			if a.Filter != nil {
				f(a.Filter)
			}
		}
	case *Sort:
		for _, s := range n.Items {
			f(s.Expr)
		}
	case *Limit:
		if n.Count != nil {
			f(n.Count)
		}
		if n.Offset != nil {
			f(n.Offset)
		}
	case *Window:
		for _, w := range n.Funcs {
			for _, e := range w.Args {
				f(e)
			}
			for _, e := range w.PartitionBy {
				f(e)
			}
			for _, s := range w.OrderBy {
				f(s.Expr)
			}
		}
	case *Values:
		for _, row := range n.Rows {
			for _, e := range row {
				f(e)
			}
		}
	case *LinkRead:
		if n.Group != nil {
			f(n.Group)
		}
	}
}

// VisitNodeExprs exposes visitNodeExprs for other packages (executor,
// optimizer).
func VisitNodeExprs(n Node, f func(Expr)) { visitNodeExprs(n, f) }
