package exec

import (
	"context"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// RollupProvider answers eligible Aggregate nodes from materialized
// per-context aggregate state instead of rescanning the input — the cube
// lattice of internal/rollup implements it. Its work splits in two.
// Analyze decides what n needs (eligibility, the key terms its filters
// pin, node identity); the executor calls it once per plan and provider
// and keeps the result with the plan's compiled programs. Answer is
// called on every execution of n with that result. The provider renders
// no row: it hands the groups that answer n to n's own emit, so a hit's
// rows must be those hash aggregation over n's input would produce; the
// differential mutation-replay suite enforces that contract. The cache
// tells providers apart with ==, so a provider must be comparable.
type RollupProvider interface {
	// Analyze returns what Answer needs to answer n, or nil when n is not
	// eligible. It must not depend on the data, only on the plan.
	Analyze(n *plan.Aggregate) any
	// Answer answers one execution of the Aggregate analysed as a (which
	// may be nil). eval evaluates a row-independent expression in the
	// calling statement's scope: correlated references resolve against
	// the enclosing query's current row and plan.Param against the
	// statement's parameter vector, so the provider never inspects
	// executor internals. To answer, it returns what emit returns when
	// called, under whatever guards t, with its table t (whose calls are
	// n's), the selected groups' positions, ascending, and the column of
	// t's keys holding each of n's group expressions. A (nil, false, nil)
	// return means "not eligible / not materialized" — the executor
	// falls back to normal hash aggregation.
	Answer(a any, eval func(plan.Expr) (sqltypes.Value, error), emit func(t *Table, groups []int32, keys []int) ([][]sqltypes.Value, error)) ([][]sqltypes.Value, bool, error)
}

// rollupSlot is a provider's analysis of one Aggregate node, as the
// program cache keeps it, with the Aggregate's emit of the provider's
// hits (emitGroups).
type rollupSlot struct {
	rp   RollupProvider
	a    any
	emit func(t *Table, groups []int32, keys []int) ([]Row, error)
}

// tryRollup consults the settings' RollupProvider for an Aggregate node.
func (rt *runtime) tryRollup(n *plan.Aggregate) ([]Row, bool, error) {
	rp := rt.sh.settings.Rollups
	if rp == nil {
		return nil, false, nil
	}
	slot := rt.rollupSlot(rp, n)
	rows, ok, err := rp.Answer(slot.a, rt.evalOnce, slot.emit)
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

// rollupSlot returns rp's slot for n from the program cache, analysing n
// on first use. A slot holds the analysis of one provider: a plan run
// with another one is analysed again, and the slot then holds the new
// provider's.
func (rt *runtime) rollupSlot(rp RollupProvider, n *plan.Aggregate) rollupSlot {
	c := rt.progs()
	c.mu.RLock()
	s, ok := c.rollups[n]
	c.mu.RUnlock()
	if ok && s.rp == rp {
		return s
	}
	s = rollupSlot{rp: rp, a: rp.Analyze(n), emit: func(t *Table, groups []int32, keys []int) ([]Row, error) {
		env, err := c.aggEnv(n)
		if err != nil {
			return nil, err
		}
		return env.emitGroups(t, groups, keys)
	}}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rollups == nil {
		c.rollups = map[*plan.Aggregate]rollupSlot{}
	}
	c.rollups[n] = s
	return s
}

// emitGroups renders the Aggregate's output from the groups of t at the
// positions groups, ascending; keys[j] is the column of t's key tuples
// holding group expression j. Every grouping set gets a table of its
// own, as a fold would fill it: an output group that one group of t
// reaches reads that group's states, and one that several reach merges
// theirs, in ascending order, into fresh states. emit then renders the
// tables as it renders a fold's.
func (env *aggEnv) emitGroups(t *Table, groups []int32, keys []int) ([]Row, error) {
	tables := env.newTables(0)
	if len(groups) == 0 {
		return env.emit(tables, 0, nil)
	}
	src := &t.fold.tables[0]
	kv := make([]sqltypes.Value, len(env.n.GroupExprs))
	var merged []bool // merged[d]: group d of the set holds fresh states
	for si := range tables {
		dst := &tables[si]
		dst.reserve(len(groups))
		clear(merged)
		for _, g := range groups {
			key := src.key(int(g))
			for j, k := range keys {
				kv[j] = key[k]
			}
			if len(groups) == 1 {
				// Nothing to merge with: no hash, no index.
				dst.states = append(dst.states, src.statesOf(int(g))...)
				dst.appendKey(kv, int(g))
				continue
			}
			h := hashKey(dst.set, kv)
			d := dst.find(h, kv)
			if d < 0 {
				dst.states = append(dst.states, src.statesOf(int(g))...)
				dst.appendGroup(h, kv, int(g))
				continue
			}
			if merged == nil {
				merged = make([]bool, len(groups))
			}
			states := dst.statesOf(d)
			if !merged[d] {
				fresh := env.newStates()
				if err := mergeStates(fresh, states); err != nil {
					return nil, err
				}
				copy(states, fresh)
				merged[d] = true
			}
			if err := mergeStates(states, src.statesOf(int(g))); err != nil {
				return nil, err
			}
		}
	}
	return env.emit(tables, 0, nil)
}

// Table is a grouping table that outlives a query: a rollup lattice
// node keeps one, and hands it to an Aggregate's emit to answer
// (RollupProvider). It folds rows with the kernel of n, an Aggregate of one
// grouping set, and with the predicate of n's Input when that is a
// Filter; the Input itself is never run. n's expressions must read
// nothing but the row and no parameter (plan.RowOnly, without
// plan.Param: what the lattice's gate admits), so a fold is every
// query's fold of the same rows. A Table is not safe for concurrent use.
type Table struct {
	rt   *runtime
	pred predFn
	fold *aggFold
}

// NewTable returns the empty table of n.
func NewTable(n *plan.Aggregate) (*Table, error) {
	env, err := newAggEnv(n)
	if err != nil {
		return nil, err
	}
	t := &Table{rt: newRuntime(context.Background(), DefaultSettings()), fold: env.newFold(env.newTables(0), nil),
		pred: func(*runtime, Row) (tri, error) { return triTrue, nil }}
	if f, ok := n.Input.(*plan.Filter); ok {
		t.pred = compilePred(f.Pred)
	}
	return t, nil
}

// Fold folds rows[from:] in order, a row's index its place in the input,
// and returns how many the predicate passed.
func (t *Table) Fold(rows []Row, from int) (int, error) {
	before := t.fold.in.rows
	err := t.rt.filterRows(t.pred, rows, from, len(rows), t.fold)
	return t.fold.in.rows - before, err
}

// Len returns the number of groups, none for a nil Table. Groups are
// positions 0 to Len()-1, in the order of their first folded row.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.fold.tables[0].groups)
}

// Key returns group g's key tuple, the Aggregate's group expressions in
// order.
func (t *Table) Key(g int) []sqltypes.Value { return t.fold.tables[0].key(g) }

// States returns group g's states, one per call of the Aggregate, nil for
// a call that keeps none (GROUPING).
func (t *Table) States(g int) []fn.AggState { return t.fold.tables[0].statesOf(g) }
