package exec

import (
	"context"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// RollupProvider answers eligible Aggregate nodes from materialized
// per-context aggregate state instead of rescanning the input — the cube
// lattice of internal/rollup implements it. Its work splits in two.
// Analyze decides what n needs (eligibility, the key terms its filters
// pin, node identity); the executor calls it once per plan and provider
// and keeps the result with the plan's compiled programs. Answer is
// called on every execution of n with that result. A (rows, true, nil)
// answer must be bit-identical to what the hash aggregation over the
// node's input would have produced, including group order and NULL
// masking; the differential mutation-replay suite enforces that
// contract. The cache tells providers apart with ==, so a provider must
// be comparable.
type RollupProvider interface {
	// Analyze returns what Answer needs to answer n, or nil when n is not
	// eligible. It must not depend on the data, only on the plan.
	Analyze(n *plan.Aggregate) any
	// Answer answers one execution of the Aggregate analysed as a (which
	// may be nil). eval evaluates a row-independent expression in the
	// calling statement's scope: correlated references resolve against
	// the enclosing query's current row and plan.Param against the
	// statement's parameter vector, so the provider never inspects
	// executor internals. A (nil, false, nil) return means "not eligible
	// / not materialized" — the executor falls back to normal hash
	// aggregation.
	Answer(a any, eval func(plan.Expr) (sqltypes.Value, error)) ([][]sqltypes.Value, bool, error)
}

// rollupSlot is a provider's analysis of one Aggregate node, as the
// program cache keeps it.
type rollupSlot struct {
	rp RollupProvider
	a  any
}

// tryRollup consults the settings' RollupProvider for an Aggregate node.
func (rt *runtime) tryRollup(n *plan.Aggregate) ([]Row, bool, error) {
	rp := rt.sh.settings.Rollups
	if rp == nil {
		return nil, false, nil
	}
	rows, ok, err := rp.Answer(rt.rollupAnalysis(rp, n), rt.evalOnce)
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

// rollupAnalysis returns rp's analysis of n from the program cache,
// analysing on first use. A slot holds the analysis of one provider: a
// plan run with another one is analysed again, and the slot then holds
// the new provider's.
func (rt *runtime) rollupAnalysis(rp RollupProvider, n *plan.Aggregate) any {
	c := rt.progs()
	c.mu.RLock()
	s, ok := c.rollups[n]
	c.mu.RUnlock()
	if ok && s.rp == rp {
		return s.a
	}
	a := rp.Analyze(n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rollups == nil {
		c.rollups = map[*plan.Aggregate]rollupSlot{}
	}
	c.rollups[n] = rollupSlot{rp: rp, a: a}
	return a
}

// Evaluator compiles plan expressions for evaluation over raw rows
// outside a query: the rollup lattice uses it to compute group keys and
// aggregate arguments during materialization and incremental maintenance.
// It only supports expressions that read nothing but the row and no
// parameter (plan.RowOnly, without plan.Param — exactly what the
// lattice's gate admits), so results are identical to any in-query
// evaluation of the same expression. Neither it nor what it compiles is safe for
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
