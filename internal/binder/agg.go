package binder

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// aggBinder carries the state of binding one aggregate query: the group
// keys, accumulated aggregate calls, and everything measure expansion
// needs to know about the call site.
type aggBinder struct {
	b          *Binder
	fr         *fromResult
	whereExpr  plan.Expr // over the FROM row
	groupExprs []plan.Expr
	groupNames []string // dimension names: column name or select alias, "" if unnameable
	// groupCols names the column of a key that is a bare column with a
	// select alias ("" for any other key): the column names its
	// dimension, and the alias, groupNames, names it too.
	groupCols []string
	sets      [][]int
	aggs      []plan.AggCall
	aggIdx    map[string]int
	groupIdx  map[string]int // groupExprs[i].String() -> i
	grouping  map[int]int    // key index -> agg index of its GROUPING indicator
	input     plan.Node      // the (filtered) aggregate input
	// rowLinks holds the link by position of each relation whose rows
	// carry positions in input.
	rowLinks map[*Rel]*rowLink
	// rereads are the link reads of the naive strategy, given their
	// groups once input is final.
	rereads []reread
}

func (ab *aggBinder) nKeys() int       { return len(ab.groupExprs) }
func (ab *aggBinder) aggOut(i int) int { return ab.nKeys() + i }
func (ab *aggBinder) multiSets() bool  { return len(ab.sets) > 1 }

func (ab *aggBinder) addAgg(call plan.AggCall) int {
	key := call.String()
	if i, ok := ab.aggIdx[key]; ok {
		return i
	}
	i := len(ab.aggs)
	ab.aggs = append(ab.aggs, call)
	ab.aggIdx[key] = i
	return i
}

// groupingAgg returns the aggregate index of the GROUPING indicator for
// key j, adding it if needed.
func (ab *aggBinder) groupingAgg(j int) int {
	if i, ok := ab.grouping[j]; ok {
		return i
	}
	i := ab.addAgg(plan.AggCall{Name: "GROUPING", KeyIndex: j, Typ: sqltypes.Type{Kind: sqltypes.KindInt}})
	ab.grouping[j] = i
	return i
}

// keyRef returns a reference to group key j in the aggregate output row.
func (ab *aggBinder) keyRef(j int) *plan.ColRef {
	return &plan.ColRef{Index: j, Name: ab.groupNames[j], Typ: ab.groupExprs[j].Type()}
}

// groupingGuard returns a call-site expression (at corr level 1, for use
// inside a measure subquery) giving key j's GROUPING indicator, or nil
// when there is a single grouping set.
func (ab *aggBinder) groupingGuard(j int) plan.Expr {
	if !ab.multiSets() {
		return nil
	}
	gi := ab.groupingAgg(j)
	return &plan.CorrRef{Levels: 1, Index: ab.aggOut(gi), Name: "grouping", Typ: sqltypes.Type{Kind: sqltypes.KindInt}}
}

func (b *Binder) bindAggSelect(sel *ast.Select, items []*selItem, orderBy []ast.OrderItem, fr *fromResult, whereExpr plan.Expr) (plan.Node, error) {
	var input plan.Node = fr.node
	if whereExpr != nil {
		input = &plan.Filter{Input: input, Pred: whereExpr}
	}
	for _, item := range items {
		if item.measureDef {
			return nil, fmt.Errorf("AS MEASURE is not allowed in an aggregate query; define the measure in a subquery over the grouped result instead")
		}
	}
	if sel.Qualify != nil {
		return nil, fmt.Errorf("QUALIFY is not supported together with GROUP BY; filter a subquery instead")
	}

	ab := &aggBinder{
		b:         b,
		fr:        fr,
		whereExpr: whereExpr,
		aggIdx:    map[string]int{},
		groupIdx:  map[string]int{},
		grouping:  map[int]int{},
		input:     input,
	}

	// Bind the grouping items and build the grouping sets.
	if err := ab.bindGroupBy(sel.GroupBy, items); err != nil {
		return nil, err
	}

	// Bind select items raw, then rewrite over the aggregate output.
	finalExprs := make([]plan.NamedExpr, len(items))
	for i, item := range items {
		eb := &exprBinder{b: b, scope: fr.scope, allowAgg: true, allowMeasures: true}
		raw, err := eb.bind(item.astExpr)
		if err != nil {
			return nil, fmt.Errorf("in SELECT item %d: %w", i+1, err)
		}
		item.raw = raw
		rewritten, err := ab.rewrite(raw)
		if err != nil {
			return nil, fmt.Errorf("in SELECT item %d (%s): %w", i+1, item.alias, err)
		}
		finalExprs[i] = plan.NamedExpr{Expr: rewritten, Col: plan.Col{Name: item.alias, Typ: rewritten.Type()}}
	}

	// HAVING.
	var havingExpr plan.Expr
	if sel.Having != nil {
		eb := &exprBinder{b: b, scope: fr.scope, allowAgg: true, allowMeasures: true}
		raw, err := eb.bind(sel.Having)
		if err != nil {
			return nil, fmt.Errorf("in HAVING: %w", err)
		}
		havingExpr, err = ab.rewrite(raw)
		if err != nil {
			return nil, fmt.Errorf("in HAVING: %w", err)
		}
		if err := requireBool(havingExpr, "HAVING"); err != nil {
			return nil, err
		}
	}

	// The aggregate node's schema: keys then aggs.
	aggSch := &plan.Schema{}
	for j, g := range ab.groupExprs {
		name := ab.groupNames[j]
		if name == "" {
			name = fmt.Sprintf("key%d", j)
		}
		aggSch.Cols = append(aggSch.Cols, plan.Col{Name: name, Typ: g.Type()})
	}
	for i, a := range ab.aggs {
		aggSch.Cols = append(aggSch.Cols, plan.Col{Name: fmt.Sprintf("agg%d", i), Typ: a.Typ})
	}
	agg := &plan.Aggregate{
		GroupExprs: ab.groupExprs,
		Sets:       ab.sets,
		Aggs:       ab.aggs,
		Sch:        aggSch,
	}
	var node plan.Node = agg
	if havingExpr != nil {
		node = &plan.Filter{Input: node, Pred: havingExpr}
	}
	aggOut := node

	sch := &plan.Schema{Cols: make([]plan.Col, len(finalExprs))}
	for i, ne := range finalExprs {
		sch.Cols[i] = ne.Col
	}
	node = &plan.Project{Input: node, Exprs: finalExprs, Sch: sch}

	out, err := b.finishSelect(node, sel.Distinct, orderBy, items, func(e ast.Expr) (plan.Expr, error) {
		eb := &exprBinder{b: b, scope: fr.scope, allowAgg: true, allowMeasures: true}
		raw, err := eb.bind(e)
		if err != nil {
			return nil, err
		}
		return ab.rewrite(raw)
	}, aggOut)
	// Set last: an ORDER BY measure may be the first to link.
	for i := len(aggSch.Cols) - ab.nKeys(); i < len(ab.aggs); i++ {
		aggSch.Cols = append(aggSch.Cols, plan.Col{Name: fmt.Sprintf("agg%d", i), Typ: ab.aggs[i].Typ})
	}
	agg.Input, agg.Aggs = ab.input, ab.aggs
	ab.finishRereads()
	return out, err
}

// bindGroupBy resolves GROUP BY items (expressions, ordinals, aliases,
// ROLLUP/CUBE/GROUPING SETS) into group expressions and grouping sets.
func (ab *aggBinder) bindGroupBy(groupBy []ast.GroupItem, items []*selItem) error {
	// sets-so-far starts as a single empty set; each GROUP BY item
	// cross-multiplies it with its own sets (SQL standard semantics).
	ab.sets = [][]int{{}}

	addKey := func(e ast.Expr) (int, error) {
		bound, name, col, err := ab.bindGroupExpr(e, items)
		if err != nil {
			return 0, err
		}
		key := bound.String()
		if j, ok := ab.groupIdx[key]; ok {
			return j, nil
		}
		j := len(ab.groupExprs)
		ab.groupExprs = append(ab.groupExprs, bound)
		ab.groupNames = append(ab.groupNames, name)
		ab.groupCols = append(ab.groupCols, col)
		ab.groupIdx[key] = j
		return j, nil
	}

	cross := func(itemSets [][]int) {
		var out [][]int
		for _, s := range ab.sets {
			for _, t := range itemSets {
				merged := append(append([]int{}, s...), t...)
				out = append(out, merged)
			}
		}
		ab.sets = out
	}

	for _, item := range groupBy {
		switch item.Kind {
		case ast.GroupExpr:
			j, err := addKey(item.Exprs[0])
			if err != nil {
				return err
			}
			cross([][]int{{j}})
		case ast.GroupRollup:
			var idxs []int
			for _, e := range item.Exprs {
				j, err := addKey(e)
				if err != nil {
					return err
				}
				idxs = append(idxs, j)
			}
			var itemSets [][]int
			for n := len(idxs); n >= 0; n-- {
				itemSets = append(itemSets, append([]int{}, idxs[:n]...))
			}
			cross(itemSets)
		case ast.GroupCube:
			var idxs []int
			for _, e := range item.Exprs {
				j, err := addKey(e)
				if err != nil {
					return err
				}
				idxs = append(idxs, j)
			}
			var itemSets [][]int
			for mask := (1 << len(idxs)) - 1; mask >= 0; mask-- {
				var s []int
				for k, j := range idxs {
					if mask&(1<<k) != 0 {
						s = append(s, j)
					}
				}
				itemSets = append(itemSets, s)
			}
			cross(itemSets)
		case ast.GroupSets:
			var itemSets [][]int
			for _, set := range item.Sets {
				var s []int
				for _, e := range set {
					j, err := addKey(e)
					if err != nil {
						return err
					}
					s = append(s, j)
				}
				itemSets = append(itemSets, s)
			}
			cross(itemSets)
		}
	}
	return nil
}

// bindGroupExpr binds one grouping expression. It resolves ordinals and
// select aliases, and derives the dimension name used by AT (SET/ALL)
// modifiers: the bare column name, or the select alias whose expression
// matches (an "ad hoc dimension", paper §3.5). A bare column with such an
// alias is named by both: name is the alias and col the column.
func (ab *aggBinder) bindGroupExpr(e ast.Expr, items []*selItem) (bound plan.Expr, name, col string, err error) {
	// Ordinal: GROUP BY 1.
	if n, ok := e.(*ast.NumberLit); ok && n.IsInt {
		if n.Int < 1 || int(n.Int) > len(items) {
			return nil, "", "", fmt.Errorf("GROUP BY position %d is out of range", n.Int)
		}
		e = items[n.Int-1].astExpr
	}
	eb := &exprBinder{b: ab.b, scope: ab.fr.scope}
	bound, err = eb.bind(e)
	if err == nil {
		if id, ok := e.(*ast.Ident); ok {
			name = id.Name()
		}
		// Prefer a select alias whose expression matches.
		for _, item := range items {
			if item.alias == "" || item.measureDef {
				continue
			}
			ib := &exprBinder{b: ab.b, scope: ab.fr.scope}
			ibound, ierr := ib.bind(item.astExpr)
			if ierr == nil && ibound.String() == bound.String() {
				if _, ok := item.astExpr.(*ast.Ident); ok {
					col = name
				}
				name = item.alias
				break
			}
		}
		return bound, name, col, nil
	}
	// Alias: GROUP BY aliasName (only when not resolvable as a column).
	if id, ok := e.(*ast.Ident); ok && id.Qualifier() == "" {
		for _, item := range items {
			if strings.EqualFold(item.alias, id.Name()) && !item.measureDef {
				ib := &exprBinder{b: ab.b, scope: ab.fr.scope}
				bound, err2 := ib.bind(item.astExpr)
				if err2 != nil {
					return nil, "", "", err2
				}
				if cid, ok := item.astExpr.(*ast.Ident); ok {
					col = cid.Name()
				}
				return bound, item.alias, col, nil
			}
		}
	}
	return nil, "", "", fmt.Errorf("in GROUP BY: %w", err)
}

// rewrite converts a raw bound expression (over the FROM row, with
// placeholders) into an expression over the aggregate output row.
func (ab *aggBinder) rewrite(e plan.Expr) (plan.Expr, error) {
	// A whole-expression match against a group key wins first, so
	// GROUP BY a+b allows SELECT a+b.
	if j, ok := ab.groupIdx[e.String()]; ok {
		return ab.keyRef(j), nil
	}
	switch x := e.(type) {
	case *aggPH:
		call := x.call
		if call.Name == "GROUPING" {
			j, ok := ab.groupIdx[call.Args[0].String()]
			if !ok {
				return nil, fmt.Errorf("GROUPING argument must be a grouping expression")
			}
			gi := ab.groupingAgg(j)
			return &plan.ColRef{Index: ab.aggOut(gi), Name: "grouping", Typ: call.Typ}, nil
		}
		i := ab.addAgg(call)
		return &plan.ColRef{Index: ab.aggOut(i), Name: strings.ToLower(call.Name), Typ: call.Typ}, nil
	case *measurePH:
		return ab.expandAggSite(x)
	case *windowPH:
		return nil, fmt.Errorf("window functions in aggregate queries are not supported; wrap the aggregation in a subquery")
	case *plan.ColRef:
		return nil, fmt.Errorf("column %s must appear in the GROUP BY clause or be used in an aggregate function", x.Name)
	case *plan.Lit, *plan.CorrRef, *plan.AggRef:
		return e, nil
	case *plan.Subquery:
		return ab.remapSubquery(x)
	default:
		return mapChildren(e, ab.rewrite)
	}
}

// keyMarker tags correlated references that have been retargeted to
// group-key outputs, so the validation pass can tell them apart from
// unresolved ones.
const keyMarker = "\x00key"

// remapSubquery fixes correlated references inside a nested subquery that
// point at this query's row: they were bound against the FROM row, but
// after aggregation the visible row is the aggregate output, so they must
// be retargeted to group keys. Whole correlated expressions that match a
// grouping expression (e.g. YEAR(o.orderDate) under GROUP BY
// YEAR(orderDate), as in the paper's Listing 11 expansion) are replaced
// by a reference to that key; anything else correlated to this frame is
// an error, matching the standard SQL restriction.
func (ab *aggBinder) remapSubquery(sq *plan.Subquery) (plan.Expr, error) {
	newPlan := plan.TransformNodeExprs(sq.Plan, func(e plan.Expr, depth int) plan.Expr {
		if lowered, ok := lowerCorr(e, depth+1); ok {
			if j, found := ab.groupIdx[lowered.String()]; found {
				return &plan.CorrRef{Levels: depth + 1, Index: j, Name: keyMarker, Typ: e.Type()}
			}
		}
		return e
	})
	// Validate: no unresolved correlations into this frame remain.
	var remapErr error
	var checkNode func(n plan.Node, depth int)
	checkNode = func(n plan.Node, depth int) {
		plan.VisitNodeExprs(n, func(e plan.Expr) {
			plan.WalkExprs(e, func(x plan.Expr) {
				switch x := x.(type) {
				case *plan.CorrRef:
					if x.Levels == depth+1 && x.Name != keyMarker && remapErr == nil {
						remapErr = fmt.Errorf("correlated reference to %s: subqueries in the SELECT list of a grouped query may only reference grouping expressions", x.Name)
					}
				case *plan.Subquery:
					checkNode(x.Plan, depth+1)
				}
			})
		})
		for _, c := range n.Children() {
			checkNode(c, depth)
		}
	}
	checkNode(newPlan, 0)
	if remapErr != nil {
		return nil, remapErr
	}
	c := *sq
	c.Plan = newPlan
	return &c, nil
}

// lowerCorr rewrites CorrRefs at exactly the given level into ColRefs so
// the expression can be compared with grouping expressions (which are
// bound over the FROM row). ok is false when the expression contains
// anything that cannot appear in a grouping expression.
func lowerCorr(e plan.Expr, level int) (plan.Expr, bool) {
	ok := true
	sawTarget := false
	out := plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		switch x := x.(type) {
		case *plan.CorrRef:
			if x.Levels == level && x.Name != keyMarker {
				sawTarget = true
				return &plan.ColRef{Index: x.Index, Name: x.Name, Typ: x.Typ}
			}
			ok = false
		case *plan.Subquery, *plan.AggRef:
			ok = false
		}
		return x
	})
	if !ok || !sawTarget {
		return nil, false
	}
	return out, true
}

// mapChildren rebuilds e with f applied to each direct child expression.
func mapChildren(e plan.Expr, f func(plan.Expr) (plan.Expr, error)) (plan.Expr, error) {
	var err error
	apply := func(x plan.Expr) plan.Expr {
		if err != nil || x == nil {
			return x
		}
		var out plan.Expr
		out, err = f(x)
		return out
	}
	applyList := func(list []plan.Expr) []plan.Expr {
		out := make([]plan.Expr, len(list))
		for i, x := range list {
			out[i] = apply(x)
		}
		return out
	}
	var out plan.Expr
	switch x := e.(type) {
	case *plan.Call:
		c := *x
		c.Args = applyList(x.Args)
		out = &c
	case *plan.And:
		c := *x
		c.L, c.R = apply(x.L), apply(x.R)
		out = &c
	case *plan.Or:
		c := *x
		c.L, c.R = apply(x.L), apply(x.R)
		out = &c
	case *plan.Not:
		c := *x
		c.X = apply(x.X)
		out = &c
	case *plan.IsNull:
		c := *x
		c.X = apply(x.X)
		out = &c
	case *plan.IsDistinct:
		c := *x
		c.L, c.R = apply(x.L), apply(x.R)
		out = &c
	case *plan.InList:
		c := *x
		c.X = apply(x.X)
		c.List = applyList(x.List)
		out = &c
	case *plan.Case:
		c := *x
		c.Whens = make([]plan.CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = plan.CaseWhen{Cond: apply(w.Cond), Then: apply(w.Then)}
		}
		c.Else = apply(x.Else)
		out = &c
	case *plan.Cast:
		c := *x
		c.X = apply(x.X)
		out = &c
	default:
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
