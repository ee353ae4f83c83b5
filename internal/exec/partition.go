package exec

// Set-at-a-time evaluation of equality-correlated subqueries: the
// paper's "localized self-join" (§5.1) done the Data Cube way (Gray et
// al.) — every context's rows come from one hash-partitioned pass.
//
// A memoized subquery whose plan splits as
//
//	Above( Filter(corr ∧ rest, Below) )
//
// with Below uncorrelated and non-volatile, and every correlated
// conjunct a key term  inner {= | IS NOT DISTINCT FROM} outer  (inner
// over Below's columns, outer over the enclosing frames — the shape
// plan.SplitKeyTerms recognises for the lattice and WinMagic too),
// differs between contexts only in the key looked up. The first distinct
// context of an execution runs the plan as written. If a second one
// arrives, Below is run once more, rest is applied, and the surviving
// rows are hashed by their inner tuple in scan order; that context and
// every later one then run Above over the bucket of their outer tuple.
// A bucket holds exactly the rows the Filter would have passed, in the
// same order, so every result — float accumulation included — is
// bit-identical to per-context evaluation.
//
// Anything else (range and AT (WHERE …) contexts, volatile inputs, keys
// of a kind whose hash encoding and comparison could disagree, any error
// while building) takes the per-context path unchanged.

import (
	"encoding/binary"
	"errors"
	"sync"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// partition is the split of one subquery's plan, compiled. It is worked
// out once per plan — by the second context of the first execution that
// has one — and stored under the subquery in the program cache, like an
// operator's program; it never changes. An execution's bucket index lives
// in the subquery's subInfo.
type partition struct {
	sq     *plan.Subquery
	filter *plan.Filter // its Input is Below
	rest   []predFn     // uncorrelated conjuncts, over Below's row
	keys   []partKey    // one per correlated conjunct
}

// partKey is one correlated conjunct: inner(row) ≐ outer(frames).
type partKey struct {
	inner, outer evalFn
	kind         sqltypes.Kind
	nullSafe     bool // IS NOT DISTINCT FROM: NULL matches NULL; `=`: NULL matches nothing
}

// partIndex is one execution's bucket index of a partition. The build is
// single-flight: the first goroutine to reach the Filter builds, the
// others wait on done (or their context).
type partIndex struct {
	mu       sync.Mutex
	done     chan struct{}
	buckets  map[string]*bucket // nil after a failed build
	buildErr error              // statement-fatal build error
}

type bucket struct{ rows []Row }

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
// (NaN, and INTEGER against DOUBLE) they do not. Above is unrestricted:
// it still runs once per context.
func analyzePartition(sq *plan.Subquery) *partition {
	var found *plan.Filter
	count := 0
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok && plan.HasCorrRefs(f.Pred) {
			found = f
			count++
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(sq.Plan)
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
		p.keys = append(p.keys, partKey{inner: compileExpr(k.Inner), outer: compileExpr(k.Outer), kind: kind, nullSafe: k.NullSafe})
	}
	return p
}

// lookup answers the partition's Filter for the context on top of the
// runtime's frame stack. ok=false sends the caller down the ordinary
// Filter path (failed build, or an outer key this index cannot serve).
func (p *partition) lookup(rt *runtime) (rows []Row, ok bool, err error) {
	idx := &rt.subInfo(p.sq).index
	if err := idx.ensureBuilt(rt, p); err != nil {
		return nil, false, err
	}
	if idx.buckets == nil {
		return nil, false, nil
	}
	var buf [64]byte
	key := buf[:0]
	for _, k := range p.keys {
		v, err := k.outer(rt, nil)
		if err != nil {
			// Per-context evaluation raises this only if a row gets as
			// far as the conjunct; let it decide.
			return nil, false, nil
		}
		if v.Null {
			if !k.nullSafe {
				return nil, true, nil
			}
		} else if v.K != k.kind {
			return nil, false, nil
		}
		key = appendPartKey(key, v)
	}
	if b := idx.buckets[string(key)]; b != nil {
		return b.rows, true, nil
	}
	return nil, true, nil
}

// ensureBuilt builds the index of p at most once per execution. Waiters
// block with a context escape hatch, like memoCache.do; a builder that
// panics closes done first so it cannot strand them.
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

	buckets, err := p.build(rt)
	switch {
	case err == nil:
		idx.buckets = buckets
		if prof := rt.sh.prof; prof != nil {
			prof.SubqueryMetrics(p.sq).SetPartitions(len(buckets))
		}
	case errors.Is(err, CodeCanceled), errors.Is(err, CodeTimeout), errors.Is(err, CodeResourceExhausted):
		idx.buildErr = err
	}
	// Any other error: leave buckets nil. The per-context path evaluates
	// a subset of what the build evaluates, so it alone decides whether
	// the statement fails.
	return idx.buildErr
}

// build runs Below once, applies rest, and buckets the surviving rows by
// inner tuple in scan order.
func (p *partition) build(rt *runtime) (map[string]*bucket, error) {
	// Below is uncorrelated, so the frames on the stack do not matter to
	// it.
	in, err := rt.run(p.filter.Input)
	if err != nil {
		return nil, err
	}
	buckets := map[string]*bucket{}
	var kept, perRow int64
	var key []byte
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
		key = key[:0]
		for _, k := range p.keys {
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
			key = appendPartKey(key, v)
		}
		b := buckets[string(key)]
		if b == nil {
			b = &bucket{}
			buckets[string(key)] = b
		}
		b.rows = append(b.rows, row)
		if kept++; kept == 1 {
			perRow = rowsBytes(in[:1])
		}
	}
	// The index holds the partitioned rows for the rest of the statement:
	// charge them like one materialized Filter output.
	if err := rt.sh.bud.noteMem(kept * perRow); err != nil {
		return nil, err
	}
	return buckets, nil
}

var errKeyKind = errors.New("partition key of unexpected kind")

// appendPartKey is Value.AppendKey with INTEGER encoded exactly: both
// sides of a partition key have the same kind, so the INT/FLOAT folding
// AppendKey does for GROUP BY (lossy above 2^53) is not wanted here.
func appendPartKey(dst []byte, v sqltypes.Value) []byte {
	if !v.Null && v.K == sqltypes.KindInt {
		dst = append(dst, 5)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
	return v.AppendKey(dst)
}
