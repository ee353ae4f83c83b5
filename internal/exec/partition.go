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
// conjunct of the form  inner {= | IS NOT DISTINCT FROM} outer  (inner
// over Below's columns, outer over the enclosing frames), differs
// between contexts only in the key looked up. The first distinct
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

// partition is the split of one subquery's plan plus, once a second
// context has reached the Filter, its bucket index. It lives in the
// per-execution subInfo, never in a plan or Pipeline.
type partition struct {
	sq     *plan.Subquery
	filter *plan.Filter // its Input is Below
	rest   []plan.Expr  // uncorrelated conjuncts, over Below's row
	keys   []partKey    // one per correlated conjunct

	// The build is single-flight: the first goroutine to reach the Filter
	// builds, the others wait on done (or their context).
	mu       sync.Mutex
	done     chan struct{}
	buckets  map[string]*bucket // nil after a failed build
	buildErr error              // statement-fatal build error
}

// partKey is one correlated conjunct: inner(row) ≐ outer(frames).
type partKey struct {
	inner, outer plan.Expr
	kind         sqltypes.Kind
	nullSafe     bool // IS NOT DISTINCT FROM: NULL matches NULL; `=`: NULL matches nothing
}

type bucket struct{ rows []Row }

// partProg is the compiled form of a partition's expressions: rest, and
// the inner and outer side of each key.
type partProg struct {
	rest         []predFn
	inner, outer []evalFn
}

// prog returns the partition's program, stored under its subquery.
func (p *partition) prog(rt *runtime) *partProg {
	return rt.rowProg(p.sq, func() any {
		pp := &partProg{
			rest:  make([]predFn, len(p.rest)),
			inner: make([]evalFn, len(p.keys)),
			outer: make([]evalFn, len(p.keys)),
		}
		for i, c := range p.rest {
			pp.rest[i] = compilePred(c)
		}
		for i, k := range p.keys {
			pp.inner[i], pp.outer[i] = compileExpr(k.inner), compileExpr(k.outer)
		}
		return pp
	}).(*partProg)
}

// partition returns the subquery's partition, analyzing the plan on
// first call; nil when the shape is not eligible.
func (si *subInfo) partition() *partition {
	si.partOnce.Do(func() { si.part = analyzePartition(si.sq) })
	return si.part
}

// analyzePartition finds the split. The plan must hold exactly one
// Filter with correlated conjuncts, reachable along one path from the
// root, and everything beneath it must be uncorrelated and non-volatile.
// Above is unrestricted: it still runs once per context.
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
	if plan.PlanHasOuterRefs(below, 0) || !planDeterministic(below) {
		return nil
	}
	p := &partition{sq: sq, filter: found}
	for _, conj := range plan.SplitConj(found.Pred) {
		if !plan.HasCorrRefs(conj) {
			if !plan.ExprParallelSafe(conj) {
				return nil
			}
			p.rest = append(p.rest, conj)
			continue
		}
		k, ok := matchPartKey(conj)
		if !ok {
			return nil
		}
		p.keys = append(p.keys, k)
	}
	return p
}

// planDeterministic reports whether no expression anywhere in the plan
// (nested subquery plans included) calls a volatile function.
func planDeterministic(n plan.Node) bool {
	if !plan.NodeParallelSafe(n) {
		return false
	}
	for _, c := range n.Children() {
		if !planDeterministic(c) {
			return false
		}
	}
	return true
}

// matchPartKey recognizes  inner = outer  /  inner IS NOT DISTINCT FROM
// outer  in either operand order. Both sides must have the same static
// kind, and one whose key encoding is exact: for BOOLEAN, INTEGER,
// VARCHAR and DATE "equal keys" and "compare equal" coincide, for DOUBLE
// (NaN, and INTEGER against DOUBLE) they do not.
func matchPartKey(conj plan.Expr) (partKey, bool) {
	var l, r plan.Expr
	var nullSafe bool
	switch c := conj.(type) {
	case *plan.IsDistinct:
		if !c.Neg {
			return partKey{}, false
		}
		l, r, nullSafe = c.L, c.R, true
	case *plan.Call:
		if c.Name != "=" || len(c.Args) != 2 {
			return partKey{}, false
		}
		l, r = c.Args[0], c.Args[1]
	default:
		return partKey{}, false
	}
	if !isInnerExpr(l) || !plan.RowIndependent(r) {
		l, r = r, l
		if !isInnerExpr(l) || !plan.RowIndependent(r) {
			return partKey{}, false
		}
	}
	kind := l.Type().Kind
	if r.Type().Kind != kind {
		return partKey{}, false
	}
	switch kind {
	case sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindDate:
	default:
		return partKey{}, false
	}
	return partKey{inner: l, outer: r, kind: kind, nullSafe: nullSafe}, true
}

// isInnerExpr: reads the Filter's input row only — no outer reference,
// no subquery, nothing volatile. Its counterpart, the outer side of a
// key, is plan.RowIndependent: constant for the duration of one context.
func isInnerExpr(e plan.Expr) bool {
	ok := true
	plan.WalkExprs(e, func(x plan.Expr) {
		switch x.(type) {
		case *plan.CorrRef, *plan.Subquery, *plan.AggRef:
			ok = false
		}
	})
	return ok && plan.ExprParallelSafe(e)
}

// lookup answers the partition's Filter for the context on top of the
// runtime's frame stack. ok=false sends the caller down the ordinary
// Filter path (failed build, or an outer key this index cannot serve).
func (p *partition) lookup(rt *runtime) (rows []Row, ok bool, err error) {
	if err := p.ensureBuilt(rt); err != nil {
		return nil, false, err
	}
	if p.buckets == nil {
		return nil, false, nil
	}
	outer := p.prog(rt).outer
	var buf [64]byte
	key := buf[:0]
	for i, k := range p.keys {
		v, err := outer[i](rt, nil)
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
	if b := p.buckets[string(key)]; b != nil {
		return b.rows, true, nil
	}
	return nil, true, nil
}

// ensureBuilt builds the index at most once per execution. Waiters block
// with a context escape hatch, like memoCache.do; a builder that panics
// closes done first so it cannot strand them.
func (p *partition) ensureBuilt(rt *runtime) error {
	p.mu.Lock()
	if p.done != nil {
		done := p.done
		p.mu.Unlock()
		select {
		case <-done:
			return p.buildErr
		case <-rt.sh.ctx.Done():
			return CtxError(rt.sh.ctx.Err())
		}
	}
	p.done = make(chan struct{})
	p.mu.Unlock()
	defer close(p.done)

	buckets, err := p.build(rt)
	switch {
	case err == nil:
		p.buckets = buckets
		if prof := rt.sh.prof; prof != nil {
			prof.SubqueryMetrics(p.sq).SetPartitions(len(buckets))
		}
	case errors.Is(err, CodeCanceled), errors.Is(err, CodeTimeout), errors.Is(err, CodeResourceExhausted):
		p.buildErr = err
	}
	// Any other error: leave buckets nil. The per-context path evaluates
	// a subset of what the build evaluates, so it alone decides whether
	// the statement fails.
	return p.buildErr
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
	prog := p.prog(rt)
	buckets := map[string]*bucket{}
	var kept, perRow int64
	var key []byte
rows:
	for _, row := range in {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		for _, c := range prog.rest {
			t, err := c(rt, row)
			if err != nil {
				return nil, err
			}
			if t != triTrue {
				continue rows
			}
		}
		key = key[:0]
		for i, k := range p.keys {
			v, err := prog.inner[i](rt, row)
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
