package rollup

import (
	"fmt"
	"sort"
	"strings"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// The eligibility gate decides whether an Aggregate node can be answered
// from materialized lattice state. It mirrors the spirit of the
// partition-mergeable gate in internal/exec/partial.go but is stricter,
// because a lattice node outlives the statement that built it: every
// expression folded into a node must be self-contained (no correlated
// references, parameters, or subqueries) and deterministic, and every
// filter conjunct must either be a per-call group selection (an equality
// or IS NOT DISTINCT FROM pin against a row-independent value — the
// shape measure expansion emits for evaluation contexts), a fixed row
// predicate that can be baked into the node, or a row-independent
// condition evaluated once per call.

// aggSpec is one aggregate of a lattice node: the original call (for
// GROUPING metadata), its definition, the argument expressions rebased
// onto the base-table row, and the argument types the direct executor
// would use (so states are created identically).
type aggSpec struct {
	call     plan.AggCall
	def      *fn.Agg // nil for GROUPING
	args     []plan.Expr
	argTypes []sqltypes.Type
	sig      string
}

// term is one group-selection filter conjunct: key expression index,
// the row-independent comparison value, and optional row-independent
// guards (the GROUPING <> 0 disjuncts ROLLUP contexts emit); when any
// guard evaluates TRUE the term imposes no constraint.
type term struct {
	key    int
	rhs    plan.Expr
	guards []plan.Expr
	eq     bool // true: SQL `=` (NULL never matches); false: IS NOT DISTINCT FROM
}

// request is the analyzed form of an eligible Aggregate node.
type request struct {
	src      *catalog.BaseTable
	keys     []plan.Expr // rebased key expressions, sorted by signature
	keySigs  []string
	aggs     []aggSpec
	preds    []plan.Expr // rebased row predicates, original order
	terms    []term
	consts   []plan.Expr // wholly row-independent conjuncts
	groupKey []int       // GroupExprs[j] -> index into keys
	// exact: every aggregate merges exactly (fn.MergesExactly), so the
	// node maintains states in place on INSERT; otherwise mutations mark
	// touched groups dirty for lazy rebuild.
	exact bool
	// derivExact: every aggregate tolerates merging states of row-wise
	// interleaved groups (deriving a coarser grouping from a finer one),
	// which is stronger than chunk-merge exactness: chunk merges combine
	// contiguous row ranges, derivation merges interleaved ones, so
	// order-tie-breaking aggregates (ARG_MAX/ARG_MIN) and float
	// accumulators are excluded.
	derivExact bool
	n          *plan.Aggregate
	nodeKey    string
}

// flatSrc is an Aggregate input flattened to its base table: the current
// output columns and accumulated filter predicates, both rewritten as
// expressions over the raw base-table row.
type flatSrc struct {
	src   *catalog.BaseTable
	exprs []plan.Expr
	preds []plan.Expr // innermost Filter first
}

func flatten(n plan.Node) (*flatSrc, bool) {
	switch t := n.(type) {
	case *plan.Scan:
		bt, ok := t.Source.(*catalog.BaseTable)
		if !ok {
			return nil, false
		}
		cols := t.Sch.Cols
		exprs := make([]plan.Expr, len(cols))
		for i, c := range cols {
			exprs[i] = &plan.ColRef{Index: i, Name: c.Name, Typ: c.Typ}
		}
		return &flatSrc{src: bt, exprs: exprs}, true
	case *plan.Filter:
		f, ok := flatten(t.Input)
		if !ok {
			return nil, false
		}
		p, ok := substitute(t.Pred, f.exprs)
		if !ok {
			return nil, false
		}
		f.preds = append(f.preds, p)
		return f, true
	case *plan.Project:
		f, ok := flatten(t.Input)
		if !ok {
			return nil, false
		}
		exprs := make([]plan.Expr, len(t.Exprs))
		for i := range t.Exprs {
			e, ok := substitute(t.Exprs[i].Expr, f.exprs)
			if !ok {
				return nil, false
			}
			exprs[i] = e
		}
		f.exprs = exprs
		return f, true
	default:
		return nil, false
	}
}

// substitute rewrites e so that every ColRef resolves through the
// mapping m (the enclosing projection's expressions over the base row).
// It bails on what cannot be rebased onto the base row — an
// out-of-range column, a subquery, an aggregate reference, or any form
// it does not know — before plan.SubstituteCols copies the tree.
func substitute(e plan.Expr, m []plan.Expr) (plan.Expr, bool) {
	ok := e != nil
	plan.WalkExprs(e, func(x plan.Expr) {
		switch x := x.(type) {
		case *plan.ColRef:
			ok = ok && x.Index >= 0 && x.Index < len(m)
		case *plan.CorrRef, *plan.Lit, *plan.Param, *plan.Call, *plan.And, *plan.Or, *plan.Not,
			*plan.IsNull, *plan.IsDistinct, *plan.InList, *plan.Case, *plan.Cast:
		default:
			ok = false
		}
	})
	if !ok {
		return nil, false
	}
	return plan.SubstituteCols(e, func(c *plan.ColRef) (plan.Expr, bool) { return m[c.Index], true }), true
}

// selfContained reports whether e depends only on the current row:
// no correlated references, parameters, subqueries, or volatile calls.
// Such an expression evaluates identically inside any statement, which
// is what lets the lattice bake it into long-lived materialized state.
func selfContained(e plan.Expr) bool {
	ok := true
	plan.WalkExprs(e, func(x plan.Expr) {
		switch x.(type) {
		case *plan.CorrRef, *plan.Param, *plan.Subquery, *plan.AggRef:
			ok = false
		}
	})
	return ok && plan.ExprParallelSafe(e)
}

// keyTermKindOK enforces comparable kinds between a key expression and
// its comparison value, so group matching via sqltypes.NotDistinct can
// never disagree with the executor's row-at-a-time comparison. Float
// keys are rejected outright (0.0 and -0.0 compare equal but have
// distinct grouping identities).
func keyTermKindOK(keyKind, rhsKind sqltypes.Kind) bool {
	switch keyKind {
	case sqltypes.KindInt:
		return rhsKind == sqltypes.KindInt || rhsKind == sqltypes.KindFloat || rhsKind == sqltypes.KindUnknown
	case sqltypes.KindString, sqltypes.KindDate, sqltypes.KindBool:
		return rhsKind == keyKind || rhsKind == sqltypes.KindUnknown
	default:
		return false
	}
}

// pendingTerm is a filter conjunct classified as a group selection but
// not yet resolved to a key index.
type pendingTerm struct {
	keyExpr plan.Expr
	rhs     plan.Expr
	guards  []plan.Expr
	eq      bool
}

// classifyTerm sorts one filter conjunct into its gate category.
// Returns (term, isKeyTerm, ok).
func classifyTerm(e plan.Expr, guards []plan.Expr) (pendingTerm, bool, bool) {
	switch t := e.(type) {
	case *plan.IsDistinct:
		if !t.Neg {
			return pendingTerm{}, false, false
		}
		if selfContained(t.L) && plan.RowIndependent(t.R) && keyTermKindOK(t.L.Type().Kind, t.R.Type().Kind) {
			return pendingTerm{keyExpr: t.L, rhs: t.R, guards: guards, eq: false}, true, true
		}
		if selfContained(t.R) && plan.RowIndependent(t.L) && keyTermKindOK(t.R.Type().Kind, t.L.Type().Kind) {
			return pendingTerm{keyExpr: t.R, rhs: t.L, guards: guards, eq: false}, true, true
		}
		return pendingTerm{}, false, false
	case *plan.Call:
		if t.Name != "=" || len(t.Args) != 2 {
			return pendingTerm{}, false, false
		}
		l, r := t.Args[0], t.Args[1]
		if selfContained(l) && plan.RowIndependent(r) && keyTermKindOK(l.Type().Kind, r.Type().Kind) {
			return pendingTerm{keyExpr: l, rhs: r, guards: guards, eq: true}, true, true
		}
		if selfContained(r) && plan.RowIndependent(l) && keyTermKindOK(r.Type().Kind, l.Type().Kind) {
			return pendingTerm{keyExpr: r, rhs: l, guards: guards, eq: true}, true, true
		}
		return pendingTerm{}, false, false
	case *plan.Or:
		// Or(guard, term) with a row-independent guard: when the guard is
		// TRUE the disjunction holds for every row (the term is inert);
		// otherwise the disjunction reduces to the term for filtering
		// purposes, because a non-TRUE guard never turns a non-TRUE term
		// into TRUE. ROLLUP evaluation contexts emit this shape with a
		// GROUPING(d) <> 0 guard.
		if plan.RowIndependent(t.L) {
			return classifyTerm(t.R, append(guards, t.L))
		}
		if plan.RowIndependent(t.R) {
			return classifyTerm(t.L, append(guards, t.R))
		}
		return pendingTerm{}, false, false
	default:
		return pendingTerm{}, false, false
	}
}

// exprSig is the canonical signature of a rebased expression: structure
// plus result kind. Two expressions with equal signatures over the same
// base table are semantically identical, which is what node identity and
// key matching rely on.
func exprSig(e plan.Expr) string {
	return fmt.Sprintf("%d:%s", e.Type().Kind, e.String())
}

// derivationExact reports whether merging the aggregate's states across
// row-wise interleaved groups reproduces serial accumulation bit for
// bit, provided the merge happens in ascending first-row order. COUNT
// and non-float SUM are commutative (modulo overflow, the same judgment
// fn.ExactMerge makes); non-float MIN/MAX ties are value-identical so
// tie-breaking order cannot show; ANY_VALUE keeps the receiver, and the
// ascending merge order makes the receiver the globally first row.
// ARG_MAX/ARG_MIN break ties by row order across different expressions,
// which interleaved merging cannot reproduce, and float accumulation is
// order-sensitive outright.
func derivationExact(name string, argTypes []sqltypes.Type) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "ANY_VALUE":
		return true
	case "SUM", "MIN", "MAX":
		return len(argTypes) > 0 && argTypes[0].Kind != sqltypes.KindFloat
	default:
		return false
	}
}

// analyze runs the eligibility gate over an Aggregate node, returning
// the lattice request or (nil, false) when the node must fall back to
// direct hash aggregation.
func analyze(n *plan.Aggregate) (*request, bool) {
	if len(n.Sets) == 0 {
		return nil, false
	}
	f, ok := flatten(n.Input)
	if !ok {
		return nil, false
	}

	req := &request{src: f.src, n: n, exact: true, derivExact: true}

	// Aggregates: rebased argument expressions must be self-contained;
	// DISTINCT / WITHIN DISTINCT / FILTER need the raw row stream.
	for _, call := range n.Aggs {
		if call.Name == "GROUPING" {
			if call.KeyIndex < 0 || call.KeyIndex >= len(n.GroupExprs) {
				return nil, false
			}
			req.aggs = append(req.aggs, aggSpec{call: call, sig: fmt.Sprintf("GROUPING@%d", call.KeyIndex)})
			continue
		}
		if call.Distinct || len(call.WithinDistinct) > 0 || call.Filter != nil {
			return nil, false
		}
		def, ok := fn.LookupAgg(call.Name)
		if !ok {
			return nil, false
		}
		sp := aggSpec{call: call, def: def}
		sigParts := []string{strings.ToUpper(call.Name)}
		if call.Star {
			sigParts = append(sigParts, "*")
		}
		for _, a := range call.Args {
			ra, ok := substitute(a, f.exprs)
			if !ok || !selfContained(ra) {
				return nil, false
			}
			sp.args = append(sp.args, ra)
			sp.argTypes = append(sp.argTypes, a.Type())
			sigParts = append(sigParts, exprSig(ra))
		}
		sp.sig = strings.Join(sigParts, ",")
		req.aggs = append(req.aggs, sp)
		if !def.MergesExactly(sp.argTypes) {
			req.exact = false
		}
		if !derivationExact(call.Name, sp.argTypes) {
			req.derivExact = false
		}
	}

	// Filter conjuncts, innermost Filter first, left-to-right within
	// each And chain (matching the executor's short-circuit order for
	// the row predicates that survive into the node).
	var pending []pendingTerm
	for _, pred := range f.preds {
		for _, conj := range plan.SplitConj(pred) {
			if plan.RowIndependent(conj) {
				req.consts = append(req.consts, conj)
				continue
			}
			if pt, isKey, ok := classifyTerm(conj, nil); ok && isKey {
				pending = append(pending, pt)
				continue
			}
			// A fixed row predicate bakes into the node identity; a
			// guarded one cannot (the guard's value varies per call,
			// which would need a different materialization each time).
			if selfContained(conj) {
				req.preds = append(req.preds, conj)
				continue
			}
			return nil, false
		}
	}

	// Group expressions must be self-contained after rebasing.
	groupExprs := make([]plan.Expr, len(n.GroupExprs))
	for j, g := range n.GroupExprs {
		rg, ok := substitute(g, f.exprs)
		if !ok || !selfContained(rg) {
			return nil, false
		}
		groupExprs[j] = rg
	}

	// Key set: group expressions plus pinned filter columns, deduplicated
	// by signature and sorted so that equivalent requests from different
	// query texts share one node.
	sigIndex := map[string]int{}
	addKey := func(e plan.Expr) int {
		sig := exprSig(e)
		if i, ok := sigIndex[sig]; ok {
			return i
		}
		i := len(req.keys)
		sigIndex[sig] = i
		req.keys = append(req.keys, e)
		req.keySigs = append(req.keySigs, sig)
		return i
	}
	for _, g := range groupExprs {
		addKey(g)
	}
	for i := range pending {
		addKey(pending[i].keyExpr)
	}
	perm := make([]int, len(req.keys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return req.keySigs[perm[a]] < req.keySigs[perm[b]] })
	sortedKeys := make([]plan.Expr, len(perm))
	sortedSigs := make([]string, len(perm))
	pos := make([]int, len(perm)) // old index -> sorted index
	for ni, oi := range perm {
		sortedKeys[ni] = req.keys[oi]
		sortedSigs[ni] = req.keySigs[oi]
		pos[oi] = ni
	}
	req.keys, req.keySigs = sortedKeys, sortedSigs

	req.groupKey = make([]int, len(groupExprs))
	for j, g := range groupExprs {
		req.groupKey[j] = pos[sigIndex[exprSig(g)]]
	}
	for _, pt := range pending {
		req.terms = append(req.terms, term{
			key:    pos[sigIndex[exprSig(pt.keyExpr)]],
			rhs:    pt.rhs,
			guards: pt.guards,
			eq:     pt.eq,
		})
	}

	// Node identity: base table instance, key set, aggregate list, and
	// baked-in row predicates.
	var sb strings.Builder
	fmt.Fprintf(&sb, "%p|%s", f.src, strings.ToLower(f.src.Name()))
	sb.WriteString("|k:")
	sb.WriteString(strings.Join(req.keySigs, ";"))
	sb.WriteString("|a:")
	for i := range req.aggs {
		sb.WriteString(req.aggs[i].sig)
		sb.WriteByte(';')
	}
	sb.WriteString("|p:")
	predSigs := make([]string, len(req.preds))
	for i, p := range req.preds {
		predSigs[i] = exprSig(p)
	}
	sb.WriteString(strings.Join(predSigs, ";"))
	req.nodeKey = sb.String()
	return req, true
}
