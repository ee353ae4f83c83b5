package optimizer

import (
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// WinMagic (Zuzarte et al., SIGMOD 2003; paper §5.1): rewrite a
// correlated scalar subquery that aggregates the same relation the outer
// query reads, correlated by equality on the same columns, into a window
// aggregate over the outer input. The paper observes that measures, OVER
// and such subqueries are three spellings of one computation; this rule
// makes the engine execute them the same way.
//
// Soundness notes:
//   - IS NOT DISTINCT FROM correlation (what measure expansion emits)
//     matches window PARTITION BY semantics exactly (NULL keys group).
//   - Plain `=` correlation drops NULL keys, so the rewritten value is
//     guarded: CASE WHEN key IS NULL THEN <aggregate over empty input>
//     ELSE <window value> END — COUNT gives 0, other aggregates NULL.
//   - DISTINCT or FILTER aggregates, extra predicates in the subquery,
//     and non-aligned plans all bail out (the subquery stays).

// winMagic rewrites eligible Filter nodes in the plan bottom-up,
// counting fired rewrites into rep.
func winMagic(n plan.Node, rep *Report) plan.Node {
	switch n := n.(type) {
	case *plan.Filter:
		c := *n
		c.Input = winMagic(n.Input, rep)
		return rewriteFilter(&c, rep)
	default:
		// Rewrite children generically via the copy helpers.
		return copyWithChildren(n, func(c plan.Node) plan.Node { return winMagic(c, rep) })
	}
}

// copyWithChildren shallow-copies n with f applied to each child.
func copyWithChildren(n plan.Node, f func(plan.Node) plan.Node) plan.Node {
	switch n := n.(type) {
	case *plan.Project:
		c := *n
		c.Input = f(n.Input)
		return &c
	case *plan.Aggregate:
		c := *n
		c.Input = f(n.Input)
		return &c
	case *plan.Sort:
		c := *n
		c.Input = f(n.Input)
		return &c
	case *plan.Limit:
		c := *n
		c.Input = f(n.Input)
		return &c
	case *plan.Distinct:
		c := *n
		c.Input = f(n.Input)
		return &c
	case *plan.Window:
		c := *n
		c.Input = f(n.Input)
		return &c
	case *plan.Join:
		c := *n
		c.Left = f(n.Left)
		c.Right = f(n.Right)
		return &c
	case *plan.SetOp:
		c := *n
		c.Left = f(n.Left)
		c.Right = f(n.Right)
		return &c
	case *plan.LinkRead:
		if n.Input == nil {
			return n
		}
		c := *n
		c.Input = f(n.Input)
		return &c
	default:
		return n
	}
}

// candidate describes one subquery eligible for the rewrite.
type candidate struct {
	sub      *plan.Subquery
	aggs     []plan.AggCall // args already over the outer row
	keys     []int          // outer-row partition key columns
	nullSafe bool           // correlation used IS NOT DISTINCT FROM
	formula  plan.Expr      // over aggregate outputs (AggRef-free ColRefs)
}

func rewriteFilter(f *plan.Filter, rep *Report) plan.Node {
	// Candidates are keyed by the subquery's Plan pointer: expression
	// transforms copy Subquery nodes but share the Plan.
	cands := map[plan.Node]*candidate{}
	plan.WalkExprs(f.Pred, func(e plan.Expr) {
		if sq, ok := e.(*plan.Subquery); ok {
			if c := matchCandidate(sq, f.Input); c != nil {
				cands[sq.Plan] = c
			}
		}
	})
	if len(cands) == 0 {
		return f
	}
	rep.WinMagicRewrites += len(cands)

	width := len(f.Input.Schema().Cols)
	var funcs []plan.WindowFunc
	// Per candidate: window column index of each of its aggregates.
	aggCols := map[plan.Node][]int{}
	for _, c := range cands {
		cols := make([]int, len(c.aggs))
		for i, call := range c.aggs {
			partition := make([]plan.Expr, len(c.keys))
			for k, idx := range c.keys {
				col := f.Input.Schema().Cols[idx]
				partition[k] = &plan.ColRef{Index: idx, Name: col.Name, Typ: col.Typ}
			}
			cols[i] = width + len(funcs)
			funcs = append(funcs, plan.WindowFunc{
				Name:        call.Name,
				Args:        call.Args,
				Star:        call.Star,
				PartitionBy: partition,
				Typ:         call.Typ,
			})
		}
		aggCols[c.sub.Plan] = cols
	}

	// Build the Window node and the rewritten predicate.
	winSch := &plan.Schema{Cols: append([]plan.Col{}, f.Input.Schema().Cols...)}
	for i, w := range funcs {
		winSch.Cols = append(winSch.Cols, plan.Col{Name: "win" + string(rune('0'+i%10)), Typ: w.Typ})
	}
	win := &plan.Window{Input: f.Input, Funcs: funcs, Sch: winSch}

	newPred := plan.TransformExpr(f.Pred, func(e plan.Expr) plan.Expr {
		sq, ok := e.(*plan.Subquery)
		if !ok {
			return e
		}
		c := cands[sq.Plan]
		if c == nil {
			return e
		}
		value := plan.TransformExpr(c.formula, func(x plan.Expr) plan.Expr {
			if ar, ok := x.(*plan.AggRef); ok {
				idx := aggCols[sq.Plan][ar.Index]
				return &plan.ColRef{Index: idx, Name: "win", Typ: ar.Typ}
			}
			return x
		})
		if c.nullSafe {
			return value
		}
		// `=` correlation: NULL keys see the aggregate of an empty input.
		var keyNull plan.Expr
		for _, idx := range c.keys {
			col := f.Input.Schema().Cols[idx]
			isNull := plan.Expr(&plan.IsNull{X: &plan.ColRef{Index: idx, Name: col.Name, Typ: col.Typ}})
			if keyNull == nil {
				keyNull = isNull
			} else {
				keyNull = &plan.Or{L: keyNull, R: isNull}
			}
		}
		emptyVal := plan.TransformExpr(c.formula, func(x plan.Expr) plan.Expr {
			if ar, ok := x.(*plan.AggRef); ok {
				return &plan.Lit{Val: emptyAggValue(c.aggs[ar.Index])}
			}
			return x
		})
		return &plan.Case{
			Whens: []plan.CaseWhen{{Cond: keyNull, Then: emptyVal}},
			Else:  value,
			Typ:   value.Type(),
		}
	})

	filtered := &plan.Filter{Input: win, Pred: newPred}
	// Strip the appended window columns so the schema is unchanged.
	exprs := make([]plan.NamedExpr, width)
	for i, col := range f.Input.Schema().Cols {
		exprs[i] = plan.NamedExpr{
			Expr: &plan.ColRef{Index: i, Name: col.Name, Typ: col.Typ},
			Col:  col,
		}
	}
	return &plan.Project{Input: filtered, Exprs: exprs, Sch: f.Input.Schema()}
}

// emptyAggValue is the value an aggregate takes over zero rows.
func emptyAggValue(call plan.AggCall) sqltypes.Value {
	def, ok := fn.LookupAgg(call.Name)
	if !ok {
		return sqltypes.Null(call.Typ.Kind)
	}
	return def.New(call.ArgTypes()).Result()
}

// matchCandidate tests whether sq has the WinMagic shape against the
// outer input and, if so, returns the rewrite ingredients.
func matchCandidate(sq *plan.Subquery, outerInput plan.Node) *candidate {
	if sq.Mode != plan.SubScalar {
		return nil
	}
	proj, ok := sq.Plan.(*plan.Project)
	if !ok || len(proj.Exprs) != 1 {
		return nil
	}
	agg, ok := proj.Input.(*plan.Aggregate)
	if !ok || len(agg.Sets) != 1 || len(agg.Sets[0]) != 0 || len(agg.GroupExprs) != 0 {
		return nil
	}
	filter, ok := agg.Input.(*plan.Filter)
	if !ok {
		return nil
	}

	// Align the subquery's base with the outer input.
	remap, ok := alignPlans(filter.Input, outerInput)
	if !ok {
		return nil
	}

	// The correlation predicate: unguarded key terms (plan.SplitKeyTerms)
	// and nothing else, each pinning a base column to the aligned outer
	// column at level 1.
	var keys []int
	nullSafe := true
	for _, c := range plan.SplitKeyTerms(filter.Pred) {
		if c.Key == nil || len(c.Key.Guards) > 0 {
			return nil
		}
		bc, isCol := c.Key.Inner.(*plan.ColRef)
		cc, isCorr := c.Key.Outer.(*plan.CorrRef)
		if !isCol || !isCorr || cc.Levels != 1 {
			return nil
		}
		if mapped, ok := remap[bc.Index]; !ok || mapped != cc.Index {
			return nil
		}
		nullSafe = nullSafe && c.Key.NullSafe
		keys = append(keys, cc.Index)
	}
	if len(keys) == 0 {
		return nil
	}

	// Aggregates: plain, with args expressible over the outer row.
	aggs := make([]plan.AggCall, len(agg.Aggs))
	for i, call := range agg.Aggs {
		if call.Distinct || call.Filter != nil || call.Name == "GROUPING" {
			return nil
		}
		okArgs := true
		args := make([]plan.Expr, len(call.Args))
		for j, a := range call.Args {
			args[j] = plan.TransformExpr(a, func(x plan.Expr) plan.Expr {
				switch x := x.(type) {
				case *plan.ColRef:
					if idx, found := remap[x.Index]; found {
						return &plan.ColRef{Index: idx, Name: x.Name, Typ: x.Typ}
					}
					okArgs = false
				case *plan.CorrRef, *plan.Subquery:
					okArgs = false
				}
				return x
			})
		}
		if !okArgs {
			return nil
		}
		call.Args = args
		aggs[i] = call
	}

	// The projected formula references aggregate outputs as ColRefs
	// (BuildMeasureSubquery) — normalize them to AggRefs; anything else
	// over the aggregate output row bails.
	formulaOK := true
	formula := plan.TransformExpr(proj.Exprs[0].Expr, func(x plan.Expr) plan.Expr {
		switch x := x.(type) {
		case *plan.ColRef:
			if x.Index < len(aggs) {
				return &plan.AggRef{Index: x.Index, Typ: x.Typ}
			}
			formulaOK = false
		case *plan.CorrRef, *plan.Subquery:
			formulaOK = false
		}
		return x
	})
	if !formulaOK {
		return nil
	}

	// No other correlations may escape the subquery.
	if extraCorrelations(sq, len(keys)) {
		return nil
	}

	return &candidate{sub: sq, aggs: aggs, keys: keys, nullSafe: nullSafe, formula: formula}
}

// extraCorrelations reports whether sq depends on outer rows beyond the
// nKeys correlation terms already accounted for.
func extraCorrelations(sq *plan.Subquery, nKeys int) bool {
	count := 0
	bad := false
	var walkNode func(n plan.Node, depth int)
	walkNode = func(n plan.Node, depth int) {
		plan.VisitNodeExprs(n, func(e plan.Expr) {
			plan.WalkExprs(e, func(x plan.Expr) {
				switch x := x.(type) {
				case *plan.CorrRef:
					if x.Levels == depth {
						count++
					} else if x.Levels > depth {
						bad = true
					}
				case *plan.Subquery:
					walkNode(x.Plan, depth+1)
				}
			})
		})
		for _, c := range n.Children() {
			walkNode(c, depth)
		}
	}
	walkNode(sq.Plan, 1)
	return bad || count != nKeys
}

// alignPlans checks that base (the subquery's relation) and outer (the
// outer query's input) read the same rows, and returns a mapping from
// base-row column indexes to outer-row column indexes.
//
// Shapes supported: identical plans (identity mapping), and outer =
// Project(X) with base aligned to X through bare-column projections.
func alignPlans(base, outer plan.Node) (map[int]int, bool) {
	if plansIdentical(base, outer) {
		m := map[int]int{}
		for i := range base.Schema().Cols {
			m[i] = i
		}
		return m, true
	}
	if proj, ok := outer.(*plan.Project); ok {
		inner, ok := alignPlans(base, proj.Input)
		if !ok {
			return nil, false
		}
		// outer col k = proj.Exprs[k]; usable when it is a bare column of
		// the projection input.
		m := map[int]int{}
		for k, ne := range proj.Exprs {
			if cr, ok := ne.Expr.(*plan.ColRef); ok {
				for baseIdx, innerIdx := range inner {
					if innerIdx == cr.Index {
						if _, dup := m[baseIdx]; !dup {
							m[baseIdx] = k
						}
					}
				}
			}
		}
		if len(m) == 0 {
			return nil, false
		}
		return m, true
	}
	return nil, false
}

// plansIdentical is a conservative structural equality: same operators,
// same expressions (by string), same scan sources.
func plansIdentical(a, b plan.Node) bool {
	switch a := a.(type) {
	case *plan.Scan:
		b, ok := b.(*plan.Scan)
		return ok && a.Source == b.Source
	case *plan.Filter:
		b, ok := b.(*plan.Filter)
		return ok && a.Pred.String() == b.Pred.String() && plansIdentical(a.Input, b.Input)
	case *plan.Project:
		b, ok := b.(*plan.Project)
		if !ok || len(a.Exprs) != len(b.Exprs) {
			return false
		}
		for i := range a.Exprs {
			if a.Exprs[i].Expr.String() != b.Exprs[i].Expr.String() {
				return false
			}
		}
		return plansIdentical(a.Input, b.Input)
	default:
		return false
	}
}
