// Package optimizer applies rule-based rewrites to logical plans. Each
// rule can be switched off independently, which the benchmark harness
// uses for ablations of the paper's execution-strategy claims (§5.1,
// §6.4).
package optimizer

import (
	"context"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Options selects which rules run.
type Options struct {
	// FoldConstants evaluates constant scalar subexpressions at plan time.
	FoldConstants bool
	// MemoizeSubqueries keeps the Memo flag on correlated subqueries
	// (the localized self-join strategy). When false the flag is
	// stripped, forcing naive per-row re-evaluation.
	MemoizeSubqueries bool
	// InlineMeasures rewrites a measure subquery into plain aggregate
	// calls of the enclosing Aggregate when the evaluation context is
	// exactly the group partition (paper §6.4 "in simple cases it may be
	// valid to inline the measure definition").
	InlineMeasures bool
	// WinMagic rewrites correlated scalar aggregate subqueries over the
	// outer query's own relation into window aggregates (paper §5.1;
	// Zuzarte et al. 2003). See winmagic.go for the soundness guards.
	WinMagic bool
	// PushDownFilters moves filter conjuncts below projections and into
	// the sides of inner joins, and merges a projection into the
	// Aggregate that reads it.
	PushDownFilters bool
}

// DefaultOptions enables every rule.
func DefaultOptions() Options {
	return Options{
		FoldConstants:     true,
		MemoizeSubqueries: true,
		InlineMeasures:    true,
		WinMagic:          true,
		PushDownFilters:   true,
	}
}

// Report counts which rewrites fired during one Optimize pass, feeding
// the query-lifecycle tracer's "optimize" spans.
type Report struct {
	// WinMagicRewrites counts correlated aggregate subqueries rewritten
	// into window aggregates.
	WinMagicRewrites int
	// FilterPushdowns counts filter conjuncts moved below a projection or
	// into a join side.
	FilterPushdowns int
	// ProjectMerges counts projections merged into the Aggregate above
	// them.
	ProjectMerges int
	// ConstantsFolded counts constant subexpressions replaced by literals.
	ConstantsFolded int
	// MemoStripped counts subqueries whose Memo flag was removed (naive
	// strategy only).
	MemoStripped int
}

// Optimize rewrites the plan according to opts. (InlineMeasures is
// consumed by the binder, which has the semantic information the rule
// needs; it is carried here so one options struct controls the whole
// strategy surface.)
func Optimize(n plan.Node, opts Options) plan.Node {
	n, _ = OptimizeWithReport(n, opts)
	return n
}

// OptimizeWithReport rewrites the plan and reports which rules fired.
func OptimizeWithReport(n plan.Node, opts Options) (plan.Node, Report) {
	return OptimizeWithReportContext(context.Background(), n, opts)
}

// OptimizeWithReportContext is OptimizeWithReport with cooperative
// cancellation: once ctx is done, remaining rules are skipped. Every
// rewrite is optional — the unoptimized plan is equally correct — so
// bailing between rules is sound, and the executor surfaces the
// cancellation error immediately afterwards.
func OptimizeWithReportContext(ctx context.Context, n plan.Node, opts Options) (plan.Node, Report) {
	var rep Report
	if opts.WinMagic && ctx.Err() == nil {
		n = everyPlan(n, func(p plan.Node) plan.Node { return winMagic(p, &rep) })
	}
	if opts.PushDownFilters && ctx.Err() == nil {
		n = everyPlan(n, func(p plan.Node) plan.Node { return pushDown(p, &rep) })
	}
	if ctx.Err() != nil {
		return n, rep
	}
	if opts.FoldConstants {
		n = plan.TransformNodeExprs(n, func(e plan.Expr, _ int) plan.Expr {
			out := foldConstant(e)
			if out != e {
				rep.ConstantsFolded++
			}
			return out
		})
	}
	if !opts.MemoizeSubqueries {
		n = plan.TransformNodeExprs(n, func(e plan.Expr, _ int) plan.Expr {
			if sq, ok := e.(*plan.Subquery); ok && sq.Memo {
				c := *sq
				c.Memo = false
				rep.MemoStripped++
				return &c
			}
			return e
		})
	}
	return n, rep
}

// everyPlan applies a node-rewriting rule to the main plan and then to
// the plan of every subquery an expression holds, at any nesting depth
// (inner plans before the plan that holds them): a measure expansion or
// a context link is a plan like any other, and the rules' walk over
// Children alone never reaches it.
func everyPlan(n plan.Node, rule func(plan.Node) plan.Node) plan.Node {
	return plan.TransformNodeExprs(rule(n), func(e plan.Expr, _ int) plan.Expr {
		if sq, ok := e.(*plan.Subquery); ok {
			c := *sq
			c.Plan = rule(sq.Plan)
			return &c
		}
		return e
	})
}

// foldConstant evaluates calls whose arguments are all literals. It is
// applied bottom-up by TransformNodeExprs, so nested constant trees
// collapse fully. Volatile calls (RANDOM) are never folded: folding
// would freeze one drawn value into the plan — observably wrong per
// row, and doubly so for a cached plan reused across executions.
func foldConstant(e plan.Expr) plan.Expr {
	call, ok := e.(*plan.Call)
	if !ok {
		return e
	}
	if sc, ok := fn.LookupScalar(call.Name); ok && sc.Volatile {
		return e
	}
	for _, a := range call.Args {
		if _, isLit := a.(*plan.Lit); !isLit {
			return e
		}
	}
	rows, err := exec.Run(&plan.Project{
		Input: &plan.Values{Rows: [][]plan.Expr{{}}, Sch: &plan.Schema{}},
		Exprs: []plan.NamedExpr{{Expr: call, Col: plan.Col{Name: "c", Typ: call.Typ}}},
		Sch:   &plan.Schema{Cols: []plan.Col{{Name: "c", Typ: call.Typ}}},
	}, exec.DefaultSettings())
	if err != nil || len(rows) != 1 {
		return e
	}
	v := rows[0][0]
	if v.K == sqltypes.KindUnknown && !v.Null {
		return e
	}
	return &plan.Lit{Val: v}
}
