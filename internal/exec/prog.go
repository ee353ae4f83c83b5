package exec

// Where compiled expressions live. An operator's expressions are compiled
// together, the first time the operator is about to loop over rows, into
// one program stored under the operator's plan node: in the Pipeline when
// the plan is cached (the program then serves every later execution), in
// the execution's shared state otherwise (it then serves every context a
// subquery plan is run for). An operator looks its program up once per
// execution, never per row.

import (
	"sync"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// progCache maps an owner — a plan node or a subquery — to its compiled
// program, and a subquery to its partition. Programs are immutable and
// safe for concurrent use.
type progCache struct {
	mu sync.RWMutex
	// row and vec hold the row-at-a-time and the columnar program of an
	// owner — an operator has at most one of each — and traits what
	// nodeTraits worked out for it.
	row, vec, traits map[any]any
	// rollups holds the rollup provider's analysis of each Aggregate.
	rollups map[*plan.Aggregate]rollupSlot
}

// get returns what is stored under key in m (one of c's maps), building
// it on first use. Two goroutines may both build; the first store wins.
func (c *progCache) get(m *map[any]any, key any, build func() any) any {
	c.mu.RLock()
	p := (*m)[key]
	c.mu.RUnlock()
	if p != nil {
		return p
	}
	built := build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := (*m)[key]; p != nil {
		return p
	}
	if *m == nil {
		*m = map[any]any{}
	}
	(*m)[key] = built
	return built
}

// progs returns the cache compiled programs of this execution go to.
func (rt *runtime) progs() *progCache {
	if p := rt.sh.settings.Pipeline; p != nil {
		return &p.progs
	}
	return &rt.sh.progs
}

func (rt *runtime) rowProg(key any, build func() any) any {
	c := rt.progs()
	return c.get(&c.row, key, build)
}

func (rt *runtime) vecProg(key any, build func() any) any {
	c := rt.progs()
	return c.get(&c.vec, key, build)
}

// evalOnce evaluates an expression that has no row loop — a LIMIT count,
// a row-independent value the rollup lattice asks for once per
// execution. Leaves are read in place; only a computed expression is
// compiled, for this one call.
func (rt *runtime) evalOnce(e plan.Expr) (sqltypes.Value, error) {
	o := operandOf(e)
	return o.load(rt, nil)
}

// exprTraits is what an operator has to know about its expressions
// before it splits rows among workers. Like the closures it is worked out
// once per plan, not once per operator execution. (A one-byte set: the
// cache stores it without allocating.)
type exprTraits uint8

const (
	// traitSerial: some expression calls a volatile function, so rows must
	// be evaluated in order on one goroutine (and never column-at-a-time).
	traitSerial exprTraits = 1 << iota
	// traitSubquery: some expression holds a subquery, which makes each
	// row expensive enough to fan out a handful of them.
	traitSubquery
)

func (t exprTraits) serial() bool   { return t&traitSerial != 0 }
func (t exprTraits) subquery() bool { return t&traitSubquery != 0 }

// add folds the traits of e (which may be nil) into t.
func (t *exprTraits) add(e plan.Expr) {
	if e == nil {
		return
	}
	if !plan.ExprParallelSafe(e) {
		*t |= traitSerial
	}
	plan.WalkExprs(e, func(x plan.Expr) {
		if _, ok := x.(*plan.Subquery); ok {
			*t |= traitSubquery
		}
	})
}

func traitsOf(exprs ...plan.Expr) exprTraits {
	var t exprTraits
	for _, e := range exprs {
		t.add(e)
	}
	return t
}

// nodeTraits returns the traits of every expression of n. A Filter, Project
// or Aggregate asks before it chooses between its columnar and its row
// program, so that only the one it runs is ever compiled.
func (rt *runtime) nodeTraits(n plan.Node) exprTraits {
	c := rt.progs()
	return c.get(&c.traits, n, func() any {
		var t exprTraits
		plan.VisitNodeExprs(n, func(e plan.Expr) { t.add(e) })
		return t
	}).(exprTraits)
}

func (rt *runtime) filterPred(n *plan.Filter) predFn {
	return rt.rowProg(n, func() any { return compilePred(n.Pred) }).(predFn)
}

func (rt *runtime) projectFns(n *plan.Project) []evalFn {
	return rt.rowProg(n, func() any {
		fns := make([]evalFn, len(n.Exprs))
		for i, ne := range n.Exprs {
			fns[i] = compileExpr(ne.Expr)
		}
		return fns
	}).([]evalFn)
}

// sortKeyFns compiles the key expressions of sort items; Sort and Window
// wrap it in their own programs.
func sortKeyFns(items []plan.SortItem) []evalFn {
	fns := make([]evalFn, len(items))
	for i, item := range items {
		fns[i] = compileExpr(item.Expr)
	}
	return fns
}

func (rt *runtime) sortFns(n *plan.Sort) []evalFn {
	return rt.rowProg(n, func() any { return sortKeyFns(n.Items) }).([]evalFn)
}

// joinProg is the compiled form of a Join's key and residual expressions.
type joinProg struct {
	left, right []evalFn
	residual    predFn // nil when the join has none
	// probeTraits are the traits of the probe: left keys plus residual.
	probeTraits exprTraits
}

func (rt *runtime) joinProg(j *plan.Join) *joinProg {
	return rt.rowProg(j, func() any {
		p := &joinProg{
			left: compileExprs(j.EquiLeft), right: compileExprs(j.EquiRight),
			probeTraits: traitsOf(j.EquiLeft...),
		}
		if j.Residual != nil {
			p.residual = compilePred(j.Residual)
			p.probeTraits.add(j.Residual)
		}
		return p
	}).(*joinProg)
}

// windowFuncProg is the compiled form of one window function.
type windowFuncProg struct {
	partitionBy, orderBy, args []evalFn
	// The traits of the partition keys, and of what is evaluated within a
	// partition (arguments and sort keys).
	partitionTraits, frameTraits exprTraits
}

func (rt *runtime) windowProgs(n *plan.Window) []windowFuncProg {
	return rt.rowProg(n, func() any {
		ps := make([]windowFuncProg, len(n.Funcs))
		for i, wf := range n.Funcs {
			frame := append([]plan.Expr{}, wf.Args...)
			for _, item := range wf.OrderBy {
				frame = append(frame, item.Expr)
			}
			ps[i] = windowFuncProg{
				partitionBy:     compileExprs(wf.PartitionBy),
				orderBy:         sortKeyFns(wf.OrderBy),
				args:            compileExprs(wf.Args),
				partitionTraits: traitsOf(wf.PartitionBy...),
				frameTraits:     traitsOf(frame...),
			}
		}
		return ps
	}).([]windowFuncProg)
}
