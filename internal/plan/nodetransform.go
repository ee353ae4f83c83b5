package plan

// TransformNodeExprs returns a copy of the plan with f applied (via
// TransformExpr) to every expression held by every node. Nested Subquery
// plans are also transformed; f receives each expression together with
// the subquery depth at which it occurs (0 = expressions of n itself).
func TransformNodeExprs(n Node, f func(e Expr, depth int) Expr) Node {
	return transformNode(n, f, 0)
}

func transformNode(n Node, f func(Expr, int) Expr, depth int) Node {
	tx := func(e Expr) Expr {
		if e == nil {
			return nil
		}
		return TransformExpr(e, func(x Expr) Expr {
			if sq, ok := x.(*Subquery); ok {
				c := *sq
				c.Plan = transformNode(sq.Plan, f, depth+1)
				return f(&c, depth)
			}
			return f(x, depth)
		})
	}
	switch n := n.(type) {
	case *Scan:
		return n
	case *LinkRead:
		c := *n
		if n.Input != nil {
			c.Input = transformNode(n.Input, f, depth)
		}
		c.Group = tx(n.Group)
		return &c
	case *Values:
		c := *n
		c.Rows = make([][]Expr, len(n.Rows))
		for i, row := range n.Rows {
			c.Rows[i] = make([]Expr, len(row))
			for j, e := range row {
				c.Rows[i][j] = tx(e)
			}
		}
		return &c
	case *Filter:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		c.Pred = tx(n.Pred)
		return &c
	case *Project:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		c.Exprs = make([]NamedExpr, len(n.Exprs))
		for i, ne := range n.Exprs {
			c.Exprs[i] = NamedExpr{Expr: tx(ne.Expr), Col: ne.Col}
		}
		return &c
	case *Join:
		c := *n
		c.Left = transformNode(n.Left, f, depth)
		c.Right = transformNode(n.Right, f, depth)
		c.EquiLeft = txList(n.EquiLeft, tx)
		c.EquiRight = txList(n.EquiRight, tx)
		c.Residual = tx(n.Residual)
		return &c
	case *Aggregate:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		c.GroupExprs = txList(n.GroupExprs, tx)
		c.Aggs = make([]AggCall, len(n.Aggs))
		for i, a := range n.Aggs {
			a.Args = txList(a.Args, tx)
			a.WithinDistinct = txList(a.WithinDistinct, tx)
			a.Filter = tx(a.Filter)
			c.Aggs[i] = a
		}
		return &c
	case *Sort:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		c.Items = make([]SortItem, len(n.Items))
		for i, s := range n.Items {
			s.Expr = tx(s.Expr)
			c.Items[i] = s
		}
		return &c
	case *Limit:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		c.Count = tx(n.Count)
		c.Offset = tx(n.Offset)
		return &c
	case *Distinct:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		return &c
	case *SetOp:
		c := *n
		c.Left = transformNode(n.Left, f, depth)
		c.Right = transformNode(n.Right, f, depth)
		return &c
	case *Window:
		c := *n
		c.Input = transformNode(n.Input, f, depth)
		c.Funcs = make([]WindowFunc, len(n.Funcs))
		for i, w := range n.Funcs {
			w.Args = txList(w.Args, tx)
			w.PartitionBy = txList(w.PartitionBy, tx)
			items := make([]SortItem, len(w.OrderBy))
			for j, s := range w.OrderBy {
				s.Expr = tx(s.Expr)
				items[j] = s
			}
			w.OrderBy = items
			c.Funcs[i] = w
		}
		return &c
	default:
		return n
	}
}

func txList(list []Expr, tx func(Expr) Expr) []Expr {
	if list == nil {
		return nil
	}
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = tx(e)
	}
	return out
}
