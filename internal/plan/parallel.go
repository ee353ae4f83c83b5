package plan

import "github.com/measures-sql/msql/internal/fn"

// Parallelism safety: the executor may evaluate an operator's
// expressions concurrently for different rows (morsel parallelism) only
// when re-ordering those evaluations cannot change results. Every
// expression form in the IR is pure except calls to volatile scalar
// functions (fn.Scalar.Volatile, e.g. RANDOM), whose per-row results
// depend on evaluation order. Subquery evaluation mutates only the
// concurrency-safe memo cache, so subqueries are safe iff the plans they
// contain are.

// ExprParallelSafe reports whether e (including any nested subquery
// plans) may be evaluated concurrently for different input rows.
func ExprParallelSafe(e Expr) bool {
	safe := true
	var checkExpr func(Expr)
	var checkNode func(Node)
	checkExpr = func(e Expr) {
		WalkExprs(e, func(x Expr) {
			switch x := x.(type) {
			case *Call:
				if sc, ok := fn.LookupScalar(x.Name); ok && sc.Volatile {
					safe = false
				}
			case *Subquery:
				checkNode(x.Plan)
			}
		})
	}
	checkNode = func(n Node) {
		visitNodeExprs(n, checkExpr)
		for _, c := range n.Children() {
			checkNode(c)
		}
	}
	checkExpr(e)
	return safe
}

// NodeParallelSafe reports whether the expressions held directly by n
// are parallel-safe; children are gated by their own operators.
func NodeParallelSafe(n Node) bool {
	safe := true
	visitNodeExprs(n, func(e Expr) {
		if !ExprParallelSafe(e) {
			safe = false
		}
	})
	return safe
}

// Deterministic reports whether no expression anywhere in the plan —
// nested subquery plans included — calls a volatile function: every
// execution over the same rows gives the same result, so the plan may be
// cached and re-executed and its input may be evaluated once for many
// contexts.
func Deterministic(n Node) bool {
	if !NodeParallelSafe(n) {
		return false
	}
	for _, c := range n.Children() {
		if !Deterministic(c) {
			return false
		}
	}
	return true
}
