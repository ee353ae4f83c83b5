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
// from materialized lattice state. It runs once per plan (the executor
// keeps its verdict with the plan's compiled programs) and is strict,
// because a lattice node outlives the statement that built it: every
// expression folded into a node must be baked — it reads only the row
// (plan.RowOnly) and no parameter — and every filter conjunct must be
// either a key term (plan.SplitKeyTerms: the equality or IS NOT DISTINCT
// FROM pin measure expansion emits for evaluation contexts, guards
// allowed) that selects groups per call, a baked row predicate that
// becomes part of the node, or a row-independent condition evaluated
// once per call.

// aggSpec is one aggregate of a lattice node: the original call, the
// argument expressions rebased onto the base-table row, and its
// signature.
type aggSpec struct {
	call plan.AggCall
	args []plan.Expr
	sig  string
}

// term is one group-selection filter conjunct: a key term whose Inner
// side is node key column key. Its Outer side and guards are evaluated
// per call; when a guard is TRUE the term imposes no constraint.
type term struct {
	key int
	*plan.KeyTerm
}

// request is the analyzed form of an eligible Aggregate node.
type request struct {
	src      *catalog.BaseTable
	scan     *plan.Scan  // of src, under the Aggregate's input
	keys     []plan.Expr // rebased key expressions, sorted by signature
	keySigs  []string
	aggs     []aggSpec
	preds    []plan.Expr // rebased row predicates, original order
	terms    []term
	consts   []plan.Expr // wholly row-independent conjuncts
	groupKey []int       // GroupExprs[j] -> index into keys
	// derivExact: every aggregate tolerates deriving a coarser grouping
	// from a finer one (fn.MergesInterleaved).
	derivExact bool
	n          *plan.Aggregate
	nodeKey    string
}

// maxKeys bounds a request's node keys and group expressions: answering
// it keeps sets of either in a uint64.
const maxKeys = 64

// flatSrc is an Aggregate input flattened to its base table: the current
// output columns and accumulated filter predicates, both rewritten as
// expressions over the raw base-table row.
type flatSrc struct {
	src   *catalog.BaseTable
	scan  *plan.Scan
	exprs []plan.Expr
	preds []plan.Expr // innermost Filter first
}

// flatten declines a plan.LinkRead like any other node: its rows carry
// positions in one execution's rows of a context link, which no lattice
// node holds, so neither the Aggregate folding them nor any other over
// it is answered here.
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
		return &flatSrc{src: bt, scan: t, exprs: exprs}, true
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

// baked reports whether a node can fold e into state that outlives the
// statement: e reads only the row, and no parameter either.
func baked(e plan.Expr) bool {
	ok := plan.RowOnly(e)
	plan.WalkExprs(e, func(x plan.Expr) {
		if _, isParam := x.(*plan.Param); isParam {
			ok = false
		}
	})
	return ok
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

// exprSig is the canonical signature of a rebased expression: structure
// plus result kind. Two expressions with equal signatures over the same
// base table are semantically identical, which is what node identity and
// key matching rely on.
func exprSig(e plan.Expr) string {
	return fmt.Sprintf("%d:%s", e.Type().Kind, e.String())
}

// analyze runs the eligibility gate over an Aggregate node, returning
// the lattice request, or nil when the node must fall back to direct
// hash aggregation.
func analyze(n *plan.Aggregate) *request {
	if len(n.Sets) == 0 {
		return nil
	}
	f, ok := flatten(n.Input)
	if !ok {
		return nil
	}

	req := &request{src: f.src, scan: f.scan, n: n, derivExact: true}

	// Aggregates: rebased argument expressions must be baked; DISTINCT /
	// WITHIN DISTINCT / FILTER need the raw row stream.
	for _, call := range n.Aggs {
		if call.Name == "GROUPING" {
			if call.KeyIndex < 0 || call.KeyIndex >= len(n.GroupExprs) {
				return nil
			}
			req.aggs = append(req.aggs, aggSpec{call: call, sig: fmt.Sprintf("GROUPING@%d", call.KeyIndex)})
			continue
		}
		if call.Distinct || len(call.WithinDistinct) > 0 || call.Filter != nil {
			return nil
		}
		def, ok := fn.LookupAgg(call.Name)
		if !ok {
			return nil
		}
		sp := aggSpec{call: call}
		sigParts := []string{strings.ToUpper(call.Name)}
		if call.Star {
			sigParts = append(sigParts, "*")
		}
		for _, a := range call.Args {
			ra, ok := substitute(a, f.exprs)
			if !ok || !baked(ra) {
				return nil
			}
			sp.args = append(sp.args, ra)
			sigParts = append(sigParts, exprSig(ra))
		}
		sp.sig = strings.Join(sigParts, ",")
		req.aggs = append(req.aggs, sp)
		if !def.MergesInterleaved(call.ArgTypes()) {
			req.derivExact = false
		}
	}

	// Filter conjuncts, innermost Filter first, left-to-right within
	// each And chain (matching the executor's short-circuit order for
	// the row predicates that survive into the node).
	var pinned []*plan.KeyTerm
	for _, pred := range f.preds {
		for _, c := range plan.SplitKeyTerms(pred) {
			switch k := c.Key; {
			case plan.RowIndependent(c.Expr):
				req.consts = append(req.consts, c.Expr)
			case k != nil && baked(k.Inner) && keyTermKindOK(k.Inner.Type().Kind, k.Outer.Type().Kind):
				pinned = append(pinned, k)
			case baked(c.Expr):
				// A baked row predicate becomes part of the node identity; a
				// guarded one cannot (the guard's value varies per call,
				// which would need a different materialization each time).
				req.preds = append(req.preds, c.Expr)
			default:
				return nil
			}
		}
	}

	// Group expressions must be baked after rebasing.
	groupExprs := make([]plan.Expr, len(n.GroupExprs))
	for j, g := range n.GroupExprs {
		rg, ok := substitute(g, f.exprs)
		if !ok || !baked(rg) {
			return nil
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
	for _, k := range pinned {
		addKey(k.Inner)
	}
	if len(req.keys) > maxKeys || len(groupExprs) > maxKeys {
		return nil
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
	for _, k := range pinned {
		req.terms = append(req.terms, term{key: pos[sigIndex[exprSig(k.Inner)]], KeyTerm: k})
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
	return req
}
