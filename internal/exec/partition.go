package exec

// Set-at-a-time evaluation of equality-correlated subqueries: the
// paper's "localized self-join" (§5.1) done the Data Cube way (Gray et
// al.) — fold every row into its context's state once, in one pass, then
// read each context's state as often as it is asked for.
//
// A memoized subquery whose plan splits as
//
//	Above( Filter(corr ∧ rest, Below) )
//
// with Below uncorrelated and non-volatile, and every correlated
// conjunct a key term  inner {= | IS NOT DISTINCT FROM} outer  (inner
// over Below's columns, outer over the enclosing frames — the shape
// plan.SplitKeyTerms recognises for the lattice and WinMagic too),
// differs between contexts only in the key looked up. One pass runs
// Below, applies rest and hashes the surviving rows by their inner tuple
// in scan order into buckets. What a bucket keeps depends on Above:
//
//   - states: Above reads the Filter through a keyless, single-set
//     Aggregate whose own expressions are uncorrelated and
//     parallel-safe. Each row is folded into its bucket's fn.AggStates
//     by the aggregate kernel (agg.go), and the Aggregate is answered
//     from the context's bucket — once the rollup lattice has declined
//     it, which it is always asked first.
//   - an IN set: the subquery is an IN whose plan is the Filter, or one
//     uncorrelated Project over it. Each bucket folds its distinct
//     encoded tuples into the inSet evalSubquery probes.
//   - rows: anything else. Every context runs Above over its bucket.
//
// A folding partition is built by the first context when the operator
// evaluating the subquery has more than one input row (more contexts are
// then likely to follow); one that keeps rows, by the second context.
// A bucket folds exactly the rows the Filter would have passed, in the
// same order, so every result — float accumulation included — is
// bit-identical to per-context evaluation.
//
// Anything else (range and AT (WHERE …) contexts, volatile inputs, keys
// of a kind whose hash encoding and comparison could disagree, any error
// while building — the build evaluates rows no context may read) takes
// the per-context path unchanged.

import (
	"errors"
	"sync"
	"time"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// foldKind is what a partition's bucket keeps.
type foldKind uint8

const (
	keepRows foldKind = iota
	foldStates
	foldSet
)

// partition is the split of one subquery's plan, compiled. It is worked
// out once per plan — by the first context that asks — and stored under
// the subquery in the program cache, like an operator's program; it
// never changes. An execution's buckets live in the subquery's subInfo.
type partition struct {
	sq     *plan.Subquery
	filter *plan.Filter // its Input is Below
	rest   []predFn     // uncorrelated conjuncts, over Below's row
	keys   []partKey    // one per correlated conjunct
	keySet []int        // every key column: foldStates tells buckets apart by all
	fold   foldKind
	agg    *plan.Aggregate // foldStates: the Aggregate whose input is filter
	// foldSet: the Project between the subquery and filter, and its
	// compiled expressions; nil when the row is the tuple.
	proj  *plan.Project
	tuple []evalFn
}

// partKey is one correlated conjunct: inner(row) ≐ outer(frames).
type partKey struct {
	inner, outer evalFn
	kind         sqltypes.Kind
	nullSafe     bool // IS NOT DISTINCT FROM: NULL matches NULL; `=`: NULL matches nothing
}

// partIndex is one execution's buckets of a partition. The build is
// single-flight: the first goroutine to need it builds, the others wait
// on done (or their context).
type partIndex struct {
	mu       sync.Mutex
	done     chan struct{}
	b        *buckets // nil after a failed build
	buildErr error    // statement-fatal build error
}

// buckets is one execution's buckets of a partition, n of them: a group
// of index per inner key, holding the Aggregate's states with
// foldStates; rows or sets hold what a bucket keeps otherwise, by its
// group's position.
type buckets struct {
	index setTable
	empty []fn.AggState // foldStates: the states of a context no row reaches
	rows  [][]Row
	sets  []*inSet
	n     int
}

// emptyInSet is the IN set of a context no row reaches.
var emptyInSet = &inSet{}

// keysOnly is the table environment of buckets that keep no states.
var keysOnly = &aggEnv{n: &plan.Aggregate{}}

// partition returns sq's partition, analysing the plan on first use; nil
// when the shape is not eligible. The typed nil is a non-nil any, so the
// program cache keeps that verdict too.
func (rt *runtime) partition(sq *plan.Subquery) *partition {
	return rt.rowProg(sq, func() any { return analyzePartition(sq) }).(*partition)
}

// analyzePartition finds the split. The plan must hold exactly one
// Filter with correlated conjuncts, reachable along one path from the
// root, and everything beneath it must be uncorrelated and deterministic.
// Of the Filter's conjuncts, those no context changes are rest; every
// other one must be an unguarded key term (plan.SplitKeyTerms) whose two
// sides share one kind with an exact key encoding: for BOOLEAN, INTEGER,
// VARCHAR and DATE "equal keys" and "compare equal" coincide, for DOUBLE
// (NaN, and INTEGER against DOUBLE) they do not. Above is unrestricted;
// its shape only decides what a bucket keeps.
func analyzePartition(sq *plan.Subquery) *partition {
	var found *plan.Filter
	var parent plan.Node
	count := 0
	var walk func(n, above plan.Node)
	walk = func(n, above plan.Node) {
		if f, ok := n.(*plan.Filter); ok && plan.HasCorrRefs(f.Pred) {
			found, parent = f, above
			count++
		}
		for _, c := range n.Children() {
			walk(c, n)
		}
	}
	walk(sq.Plan, nil)
	if count != 1 {
		return nil
	}
	below := found.Input
	if plan.PlanHasOuterRefs(below, 0) || !plan.Deterministic(below) {
		return nil
	}
	p := &partition{sq: sq, filter: found}
	for _, c := range plan.SplitKeyTerms(found.Pred) {
		if !plan.HasCorrRefs(c.Expr) {
			if !plan.ExprParallelSafe(c.Expr) {
				return nil
			}
			p.rest = append(p.rest, compilePred(c.Expr))
			continue
		}
		k := c.Key
		if k == nil || len(k.Guards) > 0 {
			return nil
		}
		kind := k.Inner.Type().Kind
		switch kind {
		case sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindDate:
		default:
			return nil
		}
		if k.Outer.Type().Kind != kind {
			return nil
		}
		p.keySet = append(p.keySet, len(p.keys))
		p.keys = append(p.keys, partKey{inner: compileExpr(k.Inner), outer: compileExpr(k.Outer), kind: kind, nullSafe: k.NullSafe})
	}

	in := sq.Mode == plan.SubIn
	switch a := parent.(type) {
	case nil:
		if in {
			p.fold = foldSet
		}
	case *plan.Project:
		if in && parent == sq.Plan && foldsRows(a) {
			p.fold, p.proj = foldSet, a
			for _, ne := range a.Exprs {
				p.tuple = append(p.tuple, compileExpr(ne.Expr))
			}
		}
	case *plan.Aggregate:
		if len(a.GroupExprs) == 0 && len(a.Sets) == 1 && foldsRows(a) {
			p.fold, p.agg = foldStates, a
		}
	}
	return p
}

// foldsRows reports whether the build may evaluate n's own expressions
// over every kept row, in scan order, instead of each context evaluating
// them over its bucket: they read no outer frame and are deterministic.
func foldsRows(n plan.Node) bool {
	ok := true
	plan.VisitNodeExprs(n, func(e plan.Expr) {
		ok = ok && !plan.HasCorrRefs(e) && plan.ExprParallelSafe(e)
	})
	return ok
}

// folds reports whether the partition's buckets keep states or sets.
func (p *partition) folds() bool { return p.fold != keepRows }

// probe returns this execution's buckets, building them on first use,
// and the position of the current context's bucket, -1 when no row
// reaches the context. ok=false sends the caller down the per-context
// path (failed build, or an outer key the index cannot serve).
func (p *partition) probe(rt *runtime) (b *buckets, g int, ok bool, err error) {
	idx := &rt.subInfo(p.sq).index
	if err := idx.ensureBuilt(rt, p); err != nil {
		return nil, -1, false, err
	}
	if idx.b == nil {
		return nil, -1, false, nil
	}
	var vals [4]sqltypes.Value
	kv := vals[:]
	if len(p.keys) > len(vals) {
		kv = make([]sqltypes.Value, len(p.keys))
	}
	for i, k := range p.keys {
		v, err := k.outer(rt, nil)
		if err != nil {
			// Per-context evaluation raises this only if a row gets as
			// far as the conjunct; let it decide.
			return nil, -1, false, nil
		}
		if v.Null {
			if !k.nullSafe {
				return idx.b, -1, true, nil
			}
		} else if v.K != k.kind {
			return nil, -1, false, nil
		}
		kv[i] = v
	}
	return idx.b, idx.b.index.find(hashKey(p.keySet, kv), kv), true, nil
}

// lookup answers the partition's Filter for the context on top of the
// runtime's frame stack, for a partition that keeps rows.
func (p *partition) lookup(rt *runtime) (rows []Row, ok bool, err error) {
	b, g, ok, err := p.probe(rt)
	if !ok || g < 0 {
		return nil, ok, err
	}
	return b.rows[g], true, nil
}

// aggregate answers the partition's Aggregate for the current context
// from its bucket's states: the one row the Aggregate would have made
// over the rows the Filter passes.
func (p *partition) aggregate(rt *runtime) ([]Row, bool, error) {
	b, g, ok, err := p.probe(rt)
	if !ok {
		return nil, false, err
	}
	states := b.empty
	if g >= 0 {
		states = b.index.statesOf(g)
	}
	row := make(Row, len(states))
	for i, s := range states {
		row[i] = s.Result()
	}
	return []Row{row}, true, nil
}

// set answers the subquery for the current context with its bucket's IN
// set.
func (p *partition) set(rt *runtime) (*inSet, bool, error) {
	b, g, ok, err := p.probe(rt)
	if !ok || g < 0 {
		return emptyInSet, ok, err
	}
	return b.sets[g], true, nil
}

// ensureBuilt builds the buckets of p at most once per execution.
// Waiters block with a context escape hatch, like memoCache.do; a builder
// that panics closes done first so it cannot strand them.
func (idx *partIndex) ensureBuilt(rt *runtime, p *partition) error {
	idx.mu.Lock()
	if idx.done != nil {
		done := idx.done
		idx.mu.Unlock()
		select {
		case <-done:
			return idx.buildErr
		case <-rt.sh.ctx.Done():
			return CtxError(rt.sh.ctx.Err())
		}
	}
	idx.done = make(chan struct{})
	idx.mu.Unlock()
	defer close(idx.done)

	b, err := p.build(rt)
	switch {
	case err == nil:
		idx.b = b
		if prof := rt.sh.prof; prof != nil {
			prof.SubqueryMetrics(p.sq).SetPartitions(b.n)
		}
	case errors.Is(err, CodeCanceled), errors.Is(err, CodeTimeout), errors.Is(err, CodeResourceExhausted):
		idx.buildErr = err
	}
	// Any other error: leave the buckets nil. The per-context path
	// evaluates a subset of what the build evaluates, so it alone decides
	// whether the statement fails.
	return idx.buildErr
}

// build runs Below once, applies rest, and folds each surviving row into
// the bucket of its inner tuple, in scan order.
func (p *partition) build(rt *runtime) (*buckets, error) {
	start := time.Now()
	// Below is uncorrelated, so the frames on the stack do not matter to
	// it.
	in, err := rt.run(p.filter.Input)
	if err != nil {
		return nil, err
	}
	env := keysOnly
	if p.fold == foldStates {
		if env, err = rt.aggEnv(p.agg); err != nil {
			return nil, err
		}
	}
	b := &buckets{index: setTable{env: env, set: p.keySet, nk: len(p.keys)}}
	var kept int
	var tuple []byte
	kv := make([]sqltypes.Value, len(p.keys))
rows:
	for _, row := range in {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		for _, c := range p.rest {
			t, err := c(rt, row)
			if err != nil {
				return nil, err
			}
			if t != triTrue {
				continue rows
			}
		}
		for i, k := range p.keys {
			v, err := k.inner(rt, row)
			if err != nil {
				return nil, err
			}
			if v.Null {
				if !k.nullSafe {
					continue rows
				}
			} else if v.K != k.kind {
				return nil, errKeyKind
			}
			kv[i] = v
		}
		g := b.index.group(hashKey(p.keySet, kv), kv, kept)
		switch p.fold {
		case keepRows:
			if g == len(b.rows) {
				b.rows = append(b.rows, nil)
			}
			b.rows[g] = append(b.rows[g], row)
		case foldStates:
			if err := rt.accumulate(env, &b.index, g, row); err != nil {
				return nil, err
			}
		case foldSet:
			if g == len(b.sets) {
				b.sets = append(b.sets, &inSet{keys: map[string]bool{}})
			}
			if tuple, err = p.appendTuple(rt, tuple[:0], b.sets[g], row); err != nil {
				return nil, err
			}
		}
		kept++
	}

	// The buckets are held for the rest of the statement: rows are
	// charged like one materialized Filter output, states and sets by
	// their estimated size.
	var held int64
	b.n = len(b.index.groups)
	switch p.fold {
	case keepRows:
		if kept > 0 {
			held = int64(kept) * rowsBytes(in[:1])
		}
	case foldStates:
		b.empty = env.newStates()
		held = int64(b.n) * (bytesPerRow + int64(len(env.calls))*bytesPerState)
	case foldSet:
		for _, s := range b.sets {
			held += bytesPerRow
			for k := range s.keys {
				held += bytesPerValue + int64(len(k))
			}
		}
	}
	if err := rt.sh.bud.noteMem(held); err != nil {
		return nil, err
	}
	// Rows that are folded never pass through the Filter operator, nor
	// through a Project folded with it: report the one pass's kept rows
	// on them.
	if prof := rt.sh.prof; prof != nil && p.folds() {
		ns := int64(time.Since(start))
		prof.NodeMetrics(p.sq, p.filter).Record(kept, ns)
		if p.proj != nil {
			prof.NodeMetrics(p.sq, p.proj).Record(kept, ns)
		}
	}
	return b, nil
}

// appendTuple adds row's IN tuple — the row, or the Project's values
// over it — to s, encoded onto scratch, which it returns.
func (p *partition) appendTuple(rt *runtime, scratch []byte, s *inSet, row Row) ([]byte, error) {
	null := false
	if p.tuple == nil {
		for _, v := range row {
			scratch = v.AppendKey(scratch)
			null = null || v.Null
		}
	} else {
		for _, f := range p.tuple {
			v, err := f(rt, row)
			if err != nil {
				return scratch, err
			}
			scratch = v.AppendKey(scratch)
			null = null || v.Null
		}
	}
	s.add(scratch, null)
	return scratch, nil
}

var errKeyKind = errors.New("partition key of unexpected kind")
