package ast

// Lift returns a statement's shape: a copy of q whose top-level WHERE
// number, string, BOOLEAN and DATE literals are the parameters $n+1,
// $n+2, … in text order, where n is the highest placeholder q already
// uses, together with the literals it took. NULL stays, since it changes
// typing, and subqueries keep their literals. With nothing to lift it
// returns q itself and no literals, so Lift of its own output is that
// output. A shape is both the statement-stats fingerprint and the text a
// coordinator plans once for every statement that has it.
func Lift(q *Query, n int) (*Query, []Expr) {
	sel, ok := q.Body.(*Select)
	if !ok || sel.Where == nil {
		return q, nil
	}
	var lits []Expr
	where := TransformExpr(sel.Where, func(x Expr) Expr {
		switch x.(type) {
		case *NumberLit, *StringLit, *BoolLit, *DateLit:
			lits = append(lits, x)
			return &Param{Index: n + len(lits)}
		}
		return x
	})
	if lits == nil {
		return q, nil
	}
	ls := *sel
	ls.Where = where
	lq := *q
	lq.Body = &ls
	return &lq, lits
}
