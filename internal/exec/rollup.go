package exec

import (
	"context"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// RollupProvider answers eligible Aggregate nodes from materialized
// per-context aggregate state instead of rescanning the input — the cube
// lattice of internal/rollup implements it. The executor consults the
// provider before running an Aggregate; a (rows, true, nil) answer must
// be bit-identical to what the hash aggregation over the node's input
// would have produced, including group order and NULL masking. The
// differential mutation-replay suite enforces that contract.
type RollupProvider interface {
	// TryAggregate attempts to answer n from materialized state. eval
	// evaluates a row-independent expression in the calling statement's
	// scope: correlated references resolve against the enclosing query's
	// current row and plan.Param against the statement's parameter
	// vector, so the provider never inspects executor internals. A
	// (nil, false, nil) return means "not eligible / not materialized" —
	// the executor falls back to normal hash aggregation.
	TryAggregate(n *plan.Aggregate, eval func(plan.Expr) (sqltypes.Value, error)) ([][]sqltypes.Value, bool, error)
}

// tryRollup consults the settings' RollupProvider for an Aggregate node.
func (rt *runtime) tryRollup(n *plan.Aggregate) ([]Row, bool, error) {
	rp := rt.sh.settings.Rollups
	if rp == nil {
		return nil, false, nil
	}
	rows, ok, err := rp.TryAggregate(n, rt.evalOnce)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	if s := rt.sh.settings.Stats; s != nil {
		atomic.AddInt64(&s.RollupHits, 1)
	}
	return rows, true, nil
}

// Evaluator compiles plan expressions for evaluation over raw rows
// outside a query: the rollup lattice uses it to compute group keys and
// aggregate arguments during materialization and incremental maintenance.
// It only supports self-contained expressions (no correlated references,
// no parameters, no subqueries — exactly what the lattice's eligibility
// gate admits), so results are identical to any in-query evaluation of
// the same expression. Neither it nor what it compiles is safe for
// concurrent use.
type Evaluator struct {
	rt *runtime
}

// NewEvaluator returns a fresh expression evaluator.
func NewEvaluator() *Evaluator {
	return &Evaluator{rt: newRuntime(context.Background(), DefaultSettings())}
}

// Compile compiles e once; the result evaluates it against a row.
func (ev *Evaluator) Compile(e plan.Expr) func(row Row) (sqltypes.Value, error) {
	f, rt := compileExpr(e), ev.rt
	return func(row Row) (sqltypes.Value, error) { return f(rt, row) }
}

// CompilePred compiles e once; the result reports whether e is TRUE of a
// row.
func (ev *Evaluator) CompilePred(e plan.Expr) func(row Row) (bool, error) {
	p, rt := compilePred(e), ev.rt
	return func(row Row) (bool, error) {
		t, err := p(rt, row)
		return t == triTrue, err
	}
}
