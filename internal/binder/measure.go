package binder

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/core"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// This file drives the paper's measure semantics: definitions
// (AS MEASURE → plan.MeasureInfo), re-export through non-aggregating
// projections (closure, §5.4), and expansion of measure uses into
// correlated scalar subqueries whose WHERE clause is the reified
// evaluation context (§4.2).
//
// One routine expands a measure reference at every call site (expand):
// it builds the default context from the site's keys and applies each AT
// modifier (applyMod). Besides its keys, a row site and an aggregate
// site differ in three things (site): the frame modifier expressions
// bind in (the FROM row, or the group keys); the names ALL and SET may
// use besides the measure's dimensions (none at a row site, whose keys
// are the dimensions; the group keys' aliases, ad hoc dimensions, at an
// aggregate site); and what VISIBLE does with a WHERE conjunct it cannot
// restate (a bind error at a row site, a link to the group's rows by
// position at an aggregate site). db.Expand prints the contexts expand
// builds (Expansions), so AT has this one implementation.

// dimMapping returns a substitution from FROM-row column references
// within rel to expressions over the measure's base row. Columns outside
// rel, measure columns, and non-derivable dimensions map to (nil, false).
func dimMapping(rel *Rel, info *plan.MeasureInfo) func(*plan.ColRef) (plan.Expr, bool) {
	m := map[int]plan.Expr{}
	k := 0
	for ci, col := range rel.Cols {
		if col.Measure != nil || col.Typ.Measure {
			continue
		}
		if k >= len(info.Dims) {
			break
		}
		if e := info.Dims[k].Expr; e != nil {
			m[rel.Offset+ci] = e
		}
		k++
	}
	return func(c *plan.ColRef) (plan.Expr, bool) {
		e, ok := m[c.Index]
		return e, ok
	}
}

// mapWholeExpr rewrites e over the base row using mapping; ok is false if
// any column fails to map or the expression contains constructs that
// cannot move into the measure subquery (correlations, subqueries,
// placeholders, aggregate references).
func mapWholeExpr(e plan.Expr, mapping func(*plan.ColRef) (plan.Expr, bool)) (plan.Expr, bool) {
	ok := true
	out := plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		switch x := x.(type) {
		case *plan.ColRef:
			if mapped, found := mapping(x); found {
				return mapped
			}
			ok = false
		case *plan.CorrRef, *plan.Subquery, *plan.AggRef, *aggPH, *measurePH, *windowPH:
			ok = false
		}
		return x
	})
	if !ok {
		return nil, false
	}
	return out, true
}

func validateModExpr(e plan.Expr, what string) error {
	var err error
	plan.WalkExprs(e, func(x plan.Expr) {
		switch x.(type) {
		case *plan.Subquery:
			err = fmt.Errorf("subqueries are not supported in %s", what)
		case *aggPH, *measurePH, *windowPH, *plan.AggRef:
			err = fmt.Errorf("aggregates and measures are not supported in %s", what)
		}
	})
	return err
}

func dimNameOf(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name()
	}
	return ast.FormatExpr(e)
}

// ---------------------------------------------------------------------------
// Call sites

// site is what a call site gives the expansion of a measure reference
// there (expand); every AT modifier means the same at every site. A row
// site (expandRowSite) and an aggregate site (expandAggSite) differ only
// in these fields.
type site struct {
	// keys bind the default context, each to its value at the site; an
	// ALL or SET modifier may name a key as a dimension.
	keys []siteKey
	// frame is the FROM row, where AT modifier expressions bind at a row
	// site (scope).
	frame *Scope
	// where is the query's WHERE clause, which VISIBLE restates over the
	// measure's base rows.
	where plan.Expr
	// group is the aggregate query whose group the site is; a row site
	// has none. Modifier expressions bind in its keys (scope), its
	// GROUPING indicators drop keys on ROLLUP super-aggregate rows, and
	// the context is linked to its rows (addLink) for a key or a VISIBLE
	// conjunct that the measure's dimensions cannot restate, or under a
	// join.
	group *aggBinder
}

// siteKey is a key of a call site: expr over the FROM row, whose value at
// the site is value, a reference one frame up from the measure subquery.
// A modifier names it by name or, when set, by alias (core.Term.Alias).
type siteKey struct {
	name, alias string
	expr        plan.Expr
	value       plan.Expr
}

// names reports whether a modifier naming dim names k.
func (k *siteKey) names(dim string) bool {
	return strings.EqualFold(k.name, dim) || k.alias != "" && strings.EqualFold(k.alias, dim)
}

// expand expands measure reference ph at call site s into the measure's
// correlated subquery, whose WHERE clause is the evaluation context
// (§4.2); mapping (dimMapping) restates FROM-row expressions over the
// measure's base row. The default context binds each key to its value
// at the site. A key the measure's dimensions cannot restate links the
// context to the site's group, or, where there is none, stays in it with
// no base expression and fails only if no modifier removes it. The AT
// modifiers then transform the context left to right (§3).
func (b *Binder) expand(ph *measurePH, s *site, mapping func(*plan.ColRef) (plan.Expr, bool)) (plan.Expr, error) {
	ctx := &core.Context{}
	needLink := false
	for i, k := range s.keys {
		base, ok := mapWholeExpr(k.expr, mapping)
		if !ok && s.group != nil {
			needLink = true
			continue
		}
		t := core.Term{Kind: core.TermDimEq, Dim: k.name, Alias: k.alias, BaseExpr: base, Value: k.value}
		if s.group != nil {
			t.Grouping = s.group.groupingGuard(i)
		}
		ctx.Terms = append(ctx.Terms, t)
	}
	if needLink {
		if err := s.linkOnce(ctx, ph); err != nil {
			return nil, err
		}
	}
	for _, mod := range ph.mods {
		if err := b.applyMod(ctx, mod, ph, s, mapping); err != nil {
			return nil, err
		}
	}
	if b.expansions != nil {
		x := Expansion{Measure: ph.info, Context: ctx}
		if s.group != nil {
			x.Keys = s.group.groupExprs
		}
		b.expansions[ph.id] = x
	}
	return core.BuildMeasureSubquery(ph.info, ctx)
}

// Expansion is how the binder expanded a measure reference (Expansions).
type Expansion struct {
	// Measure is the measure referenced.
	Measure *plan.MeasureInfo
	// Context is the reference's final evaluation context; nil when a
	// non-aggregating SELECT re-exports the measure instead (§5.4).
	Context *core.Context
	// Keys are the group keys, over the FROM row, of an aggregate call
	// site: there a reference one frame up from the measure subquery
	// names a key. At a row site Keys is nil and such a reference names
	// a column of the FROM row.
	Keys []plan.Expr
}

// Expansions binds q and returns the expansion of each measure reference
// in it, keyed by the reference's identifier. With inlining off
// (WithInline) every evaluated reference has a context.
func (b *Binder) Expansions(q *ast.Query) (map[*ast.Ident]Expansion, error) {
	b.expansions = map[*ast.Ident]Expansion{}
	_, err := b.BindQuery(q)
	return b.expansions, err
}

// scope is the frame AT modifier expressions bind in: the group keys at
// an aggregate site (callScope), the FROM row at a row site.
func (s *site) scope() *Scope {
	if s.group != nil {
		return s.group.callScope()
	}
	return s.frame
}

// linkOnce links ctx to the site's group unless it holds a link already:
// an ALL or WHERE modifier may have removed the default context's.
func (s *site) linkOnce(ctx *core.Context, ph *measurePH) error {
	for _, t := range ctx.Terms {
		if t.Kind == core.TermLink {
			return nil
		}
	}
	return s.group.addLink(ctx, ph)
}

// applyMod applies one AT modifier to ctx, the context of measure
// reference ph at call site s (paper Table 3).
func (b *Binder) applyMod(ctx *core.Context, mod ast.AtMod, ph *measurePH, s *site, mapping func(*plan.ColRef) (plan.Expr, bool)) error {
	info := ph.info
	switch m := mod.(type) {
	case *ast.AtAll:
		if len(m.Dims) == 0 {
			ctx.Clear()
			return nil
		}
		for _, d := range m.Dims {
			name := dimNameOf(d)
			if ctx.RemoveDim(name) {
				continue
			}
			if _, ok := info.DimByName(name); !ok && !s.hasKey(name) {
				return fmt.Errorf("ALL %s: unknown dimension of measure %s", name, info.Name)
			}
		}
		return nil

	case *ast.AtSet:
		// Identifiers in the value resolve against the site's frame one
		// level up, so the value is already right inside the measure
		// subquery; CURRENT resolves against the context being built.
		name := dimNameOf(m.Dim)
		base, err := s.dimBase(name, ctx, info, mapping)
		if err != nil {
			return err
		}
		eb := &exprBinder{b: b, scope: &Scope{parent: s.scope()}, currentCtx: ctx}
		value, err := eb.bind(m.Value)
		if err != nil {
			return fmt.Errorf("SET %s: %w", name, err)
		}
		if err := validateModExpr(value, "AT modifier expressions"); err != nil {
			return err
		}
		ctx.SetDim(name, base, value)
		return nil

	case *ast.AtVisible:
		// The WHERE conjuncts expressible over the measure's dimensions
		// restate it over the base rows (§3.5). A volatile conjunct is
		// not: drawn again there, it would pick other rows than the site
		// holds. The rest, and a join (§3.6), are the link's.
		restated := true
		if s.where != nil {
			for _, c := range plan.SplitConj(s.where) {
				if mc, ok := mapWholeExpr(c, mapping); ok && plan.ExprParallelSafe(c) {
					ctx.AddPred(mc)
				} else {
					restated = false
				}
			}
		}
		if s.group == nil {
			if !restated {
				return fmt.Errorf("VISIBLE: the WHERE clause is not expressible over the dimensions of measure %s", info.Name)
			}
			return nil
		}
		if restated && !s.group.fr.hasJoin {
			return nil
		}
		return s.linkOnce(ctx, ph)

	case *ast.AtWhere:
		// Unqualified names resolve first against the measure's
		// dimensions, as base-row expressions, then against the frame.
		scope := &Scope{parent: s.scope(), rels: []*Rel{dimRel(info)}}
		eb := &exprBinder{b: b, scope: scope, currentCtx: ctx}
		p, err := eb.bind(m.Pred)
		if err != nil {
			return fmt.Errorf("in AT (WHERE ...): %w", err)
		}
		if err := requireBool(p, "AT (WHERE ...) predicate"); err != nil {
			return err
		}
		if err := validateModExpr(p, "AT (WHERE ...) predicates"); err != nil {
			return err
		}
		ctx.ReplaceWith(p)
		return nil

	default:
		return fmt.Errorf("unsupported AT modifier %T", mod)
	}
}

// hasKey reports whether the site has a key named name.
func (s *site) hasKey(name string) bool {
	for i := range s.keys {
		if s.keys[i].names(name) {
			return true
		}
	}
	return false
}

// dimBase finds the base-row expression of the dimension a SET modifier
// names: that of its term in ctx, the measure's dimension, or a key of
// the site's (an ad hoc dimension, §3.5).
func (s *site) dimBase(name string, ctx *core.Context, info *plan.MeasureInfo, mapping func(*plan.ColRef) (plan.Expr, bool)) (plan.Expr, error) {
	for _, t := range ctx.Terms {
		if t.Names(name) && t.BaseExpr != nil {
			return t.BaseExpr, nil
		}
	}
	if d, ok := info.DimByName(name); ok {
		if d.Expr == nil {
			return nil, fmt.Errorf("dimension %s is not derivable from the base table of measure %s", name, info.Name)
		}
		return d.Expr, nil
	}
	for i := range s.keys {
		if k := &s.keys[i]; k.names(name) {
			if base, ok := mapWholeExpr(k.expr, mapping); ok {
				return base, nil
			}
		}
	}
	return nil, fmt.Errorf("unknown dimension %s of measure %s", name, info.Name)
}

func dimRel(info *plan.MeasureInfo) *Rel {
	cols := make([]plan.Col, len(info.Dims))
	exprs := make([]plan.Expr, len(info.Dims))
	for i, d := range info.Dims {
		typ := sqltypes.Type{Kind: sqltypes.KindUnknown}
		if d.Expr != nil {
			typ = d.Expr.Type()
		}
		cols[i] = plan.Col{Name: d.Name, Typ: typ}
		exprs[i] = d.Expr
	}
	return &Rel{Cols: cols, Exprs: exprs}
}

// expandRowSite replaces every measure placeholder in e with its
// expansion at the current row: the keys are the row's dimension
// columns, AT modifier expressions bind in the FROM row, and there is no
// group to link (paper Listing 12 query 4 overrides the keys with AT
// WHERE).
func (b *Binder) expandRowSite(e plan.Expr, fr *fromResult, whereExpr plan.Expr) (plan.Expr, error) {
	if findMeasurePH(e) == nil {
		return e, nil
	}
	var err error
	out := plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		if ph, ok := x.(*measurePH); ok && err == nil {
			s := &site{keys: make([]siteKey, 0, len(ph.info.Dims)), frame: fr.scope, where: whereExpr}
			for ci, col := range ph.rel.Cols {
				if col.Measure != nil || col.Typ.Measure {
					continue
				}
				if len(s.keys) == len(ph.info.Dims) {
					break
				}
				i := ph.rel.Offset + ci
				s.keys = append(s.keys, siteKey{
					name:  ph.info.Dims[len(s.keys)].Name,
					expr:  &plan.ColRef{Index: i, Name: col.Name, Typ: col.Typ},
					value: &plan.CorrRef{Levels: 1, Index: i, Name: col.Name, Typ: col.Typ},
				})
			}
			var ex plan.Expr
			ex, err = b.expand(ph, s, dimMapping(ph.rel, ph.info))
			if err == nil {
				return ex
			}
		}
		return x
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// expandAggSite expands a measure reference above an Aggregate: the keys
// are the group keys, dropped on ROLLUP super-aggregate rows by their
// GROUPING indicators; AT modifier expressions bind in the group keys
// (callScope); and what the measure's dimensions cannot restate links
// the base table to the group's rows by position (addLink). A reference
// plain aggregation can answer is inlined instead (tryInline).
func (ab *aggBinder) expandAggSite(ph *measurePH) (plan.Expr, error) {
	mapping := dimMapping(ph.rel, ph.info)
	if e, ok := ab.tryInline(ph, mapping); ok {
		return e, nil
	}
	s := &site{keys: make([]siteKey, len(ab.groupExprs)), where: ab.whereExpr, group: ab}
	for j, g := range ab.groupExprs {
		s.keys[j] = siteKey{
			name:  ab.groupNames[j],
			expr:  g,
			value: &plan.CorrRef{Levels: 1, Index: j, Name: ab.groupNames[j], Typ: g.Type()},
		}
		if col := ab.groupCols[j]; col != "" {
			s.keys[j].name, s.keys[j].alias = col, ab.groupNames[j]
		}
	}
	return ab.b.expand(ph, s, mapping)
}

// callScope is the synthetic frame seen by AT modifier expressions at an
// aggregate call site: the group keys, matching any table qualifier.
func (ab *aggBinder) callScope() *Scope {
	cols := make([]plan.Col, ab.nKeys())
	for j := range cols {
		name := ab.groupNames[j]
		if name == "" {
			name = fmt.Sprintf("key%d", j)
		}
		cols[j] = plan.Col{Name: name, Typ: ab.groupExprs[j].Type()}
	}
	var parent *Scope
	if ab.fr.scope != nil {
		parent = ab.fr.scope.parent
	}
	return &Scope{parent: parent, rels: []*Rel{{Cols: cols, AnyAlias: true}}}
}

// ---------------------------------------------------------------------------
// Context links

// groupMatch is the predicate over a FROM row that holds for the rows
// of the current group, whose output row is levels frames up; nil with
// no group keys.
func (ab *aggBinder) groupMatch(levels int) plan.Expr {
	var match plan.Expr
	for j, g := range ab.groupExprs {
		eq := plan.Expr(&plan.IsDistinct{
			L:   g,
			R:   &plan.CorrRef{Levels: levels, Index: j, Name: ab.groupNames[j], Typ: g.Type()},
			Neg: true,
		})
		if ab.multiSets() {
			gi := ab.groupingAgg(j)
			eq = &plan.Or{
				L: &plan.Call{
					Name: "<>",
					Args: []plan.Expr{
						&plan.CorrRef{Levels: levels, Index: ab.aggOut(gi), Name: "grouping", Typ: sqltypes.Type{Kind: sqltypes.KindInt}},
						&plan.Lit{Val: sqltypes.NewInt(0)},
					},
					Typ: sqltypes.Type{Kind: sqltypes.KindBool},
				},
				R: eq,
			}
		}
		if match == nil {
			match = eq
		} else {
			match = &plan.And{L: match, R: eq}
		}
	}
	return match
}

// rowLink is a relation of the FROM tree whose rows carry positions:
// the link, the bottom of the measure's base it reads (linkBottom),
// the input column that holds them, and whether that column names sets
// of positions instead (a DISTINCT merged rows).
type rowLink struct {
	link   *plan.RowLink
	bottom plan.Node
	col    int
	sets   bool
}

// reread is a link read of the naive strategy, the POSITIONS call that
// folds its group's positions and the predicate that keeps its group's
// rows of the FROM tree.
type reread struct {
	read  *plan.LinkRead
	fold  plan.AggCall
	match plan.Expr
}

// addLink links the measure to the current group's visible rows by
// position (plan.RowLink): the measure reads exactly the base rows the
// group's rows of the query's FROM + WHERE came from. The link's rows
// are those of the bottom of the measure's base, made once per
// execution, so a volatile base is evaluated once and the measure reads
// the very rows its group joined.
//
// The first link of a relation rewrites it to read the bottom through a
// LinkRead and carry each row's position in the measure column's slot,
// which holds no value otherwise (a measure has none per row), so no
// column of the FROM row moves (withPositions). Under the memo
// strategies the Aggregate folds each group's positions with a
// POSITIONS call and the read names the group by that call's output;
// under the naive strategy the read folds them itself from its own run
// of the FROM tree, filtered to the group (finishRereads), unless that
// run could draw other rows (redraws).
func (ab *aggBinder) addLink(ctx *core.Context, ph *measurePH) error {
	info := ph.info
	bottom := linkBottom(info.Base, relChain(ph.rel.node))
	if bottom == nil {
		return fmt.Errorf("measure %s cannot be linked to this query: its relation's rows do not each come from one of its base rows", info.Name)
	}
	if plan.PlanHasOuterRefs(bottom, 0) {
		return fmt.Errorf("measure %s cannot be linked to this query: its base rows read an enclosing query's row", info.Name)
	}
	rl := ab.rowLinks[ph.rel]
	if rl == nil {
		slot := -1
		for ci, col := range ph.rel.Cols {
			if col.Measure != nil {
				slot = ci
				break
			}
		}
		link := &plan.RowLink{}
		if sc, ok := bottom.(*plan.Scan); ok {
			link.Table = sc.Source
		}
		w := len(bottom.Schema().Cols)
		read := &plan.LinkRead{Link: link, Input: bottom, Sch: &plan.Schema{
			Cols: append(bottom.Schema().Cols[:w:w], positionCol(0).Col)}}
		node, sets := withPositions(ph.rel.node, slot, read)
		input, ok := replaceAt(ab.input, 0, ph.rel, node)
		if !ok {
			return fmt.Errorf("internal error: relation of measure %s not found in the FROM tree", info.Name)
		}
		ab.input = input
		rl = &rowLink{link: link, bottom: bottom, col: ph.rel.Offset + slot, sets: sets}
		if ab.rowLinks == nil {
			ab.rowLinks = map[*Rel]*rowLink{}
		}
		ab.rowLinks[ph.rel] = rl
	}
	if rl.bottom != bottom {
		return fmt.Errorf("measure %s cannot be linked to this query: another measure of its relation is linked to other base rows", info.Name)
	}
	read := &plan.LinkRead{Link: rl.link, Sch: bottom.Schema()}
	ctx.AddLinkRead(read, bottom)
	fold := positions(rl.link, rl.col, rl.sets)
	if !ab.b.positionFold && !redraws(ab.input) {
		ab.rereads = append(ab.rereads, reread{read: read, fold: fold, match: ab.groupMatch(2)})
		return nil
	}
	gi := ab.addAgg(fold)
	read.Group = &plan.CorrRef{Levels: 1, Index: ab.aggOut(gi), Name: "positions", Typ: positionCol(0).Col.Typ}
	return nil
}

// redraws reports whether running n again may give other rows: a node
// of n calls a volatile function, outside the bottoms of context links,
// which are made once per execution. A read of the naive strategy that
// ran such a FROM tree again would fold other rows than its group's, so
// the Aggregate folds them instead.
func redraws(n plan.Node) bool {
	if lr, ok := n.(*plan.LinkRead); ok && lr.Input != nil {
		return false
	}
	if !plan.NodeParallelSafe(n) {
		return true
	}
	for _, c := range n.Children() {
		if redraws(c) {
			return true
		}
	}
	return false
}

// positions is the POSITIONS call that folds the positions of link in
// column col, or the sets of them it names.
func positions(link *plan.RowLink, col int, sets bool) plan.AggCall {
	intT := sqltypes.Type{Kind: sqltypes.KindInt}
	return plan.AggCall{
		Name:     "POSITIONS",
		Args:     []plan.Expr{&plan.ColRef{Index: col, Name: "position", Typ: intT}},
		KeyIndex: -1,
		Link:     link,
		Sets:     sets,
		Typ:      intT,
	}
}

// finishRereads gives each read of the naive strategy its group: a
// subquery that runs the final FROM tree again and folds the positions
// of its rows in the group. It runs two frames below the FROM tree —
// inside the measure subquery and the read's own — so its references to
// enclosing rows move two frames up.
func (ab *aggBinder) finishRereads() {
	if len(ab.rereads) == 0 {
		return
	}
	input := ab.input
	if plan.PlanHasOuterRefs(input, 0) {
		input = plan.ShiftOuterRefs(input, 2)
	}
	intT := sqltypes.Type{Kind: sqltypes.KindInt}
	for _, rr := range ab.rereads {
		in := input
		if rr.match != nil {
			in = &plan.Filter{Input: input, Pred: rr.match}
		}
		rr.read.Group = &plan.Subquery{
			Plan: &plan.Aggregate{
				Input: in,
				Sets:  [][]int{{}},
				Aggs:  []plan.AggCall{rr.fold},
				Sch:   &plan.Schema{Cols: []plan.Col{{Name: "positions", Typ: intT}}},
			},
			Mode:  plan.SubScalar,
			Typ:   intT,
			Label: "the group's positions",
		}
	}
}

// relChain returns the nodes of a relation's plan n that a position can
// be carried through (withPositions), and the node under them.
func relChain(n plan.Node) map[plan.Node]bool {
	on := map[plan.Node]bool{}
	for {
		on[n] = true
		switch n.(type) {
		case *plan.Filter, *plan.Project, *plan.Sort, *plan.Limit, *plan.Window, *plan.Distinct:
			n = n.Children()[0]
		default:
			return on
		}
	}
}

// linkBottom returns the node of a measure's base whose rows a context
// link makes once per execution, or nil when the relation reads none:
// the first node under the base's Filters and Projects that the
// relation's plan reads (onChain) and that calls a volatile function —
// it is evaluated once, for the relation and the measure alike — or the
// node under them all. Above the bottom the base's Filters are ones the
// relation applies or restates (a re-export or composition maps a WHERE
// clause onto the base) and its Projects are deterministic.
func linkBottom(base plan.Node, onChain map[plan.Node]bool) plan.Node {
	for {
		switch n := base.(type) {
		case *plan.Filter, *plan.Project:
			if onChain[n] && !plan.NodeParallelSafe(n) {
				return n
			}
			base = n.Children()[0]
		default:
			if !onChain[base] {
				return nil
			}
			return base
		}
	}
}

// withPositions returns a copy of a relation's plan n whose output
// column slot holds each row's position among the link's rows — past a
// DISTINCT, the handle of the set of positions the row merged (sets) —
// with the bottom of the link, a node of n's chain (relChain), replaced
// by read. Every operator between them carries the position as a
// trailing column: a Filter, Sort or Limit passes it on, a Project and a
// Window append it, and a DISTINCT becomes an Aggregate on its visible
// columns whose POSITIONS call merges the positions of the rows it
// merges (mergePositions). The top copy moves it into slot.
func withPositions(n plan.Node, slot int, read *plan.LinkRead) (plan.Node, bool) {
	var carry func(plan.Node) (plan.Node, bool)
	carry = func(n plan.Node) (plan.Node, bool) {
		if n == read.Input {
			return read, false
		}
		in, sets := carry(n.Children()[0])
		pos := len(in.Schema().Cols) - 1
		switch t := n.(type) {
		case *plan.Filter:
			c := *t
			c.Input = in
			return &c, sets
		case *plan.Sort:
			c := *t
			c.Input = in
			return &c, sets
		case *plan.Limit:
			c := *t
			c.Input = in
			return &c, sets
		case *plan.Project:
			c := *t
			c.Input = in
			c.Exprs = append(t.Exprs[:len(t.Exprs):len(t.Exprs)], positionCol(pos))
			c.Sch = &plan.Schema{Cols: append(t.Sch.Cols[:len(t.Sch.Cols):len(t.Sch.Cols)], positionCol(pos).Col)}
			return &c, sets
		case *plan.Window:
			// The window's columns follow its input's, the position
			// among them: move it past them.
			c := *t
			c.Input = in
			c.Sch = &plan.Schema{Cols: append(append([]plan.Col(nil), in.Schema().Cols...), t.Sch.Cols[pos:]...)}
			exprs := make([]plan.NamedExpr, 0, len(c.Sch.Cols))
			for i, col := range c.Sch.Cols {
				if i != pos {
					exprs = append(exprs, plan.NamedExpr{Expr: &plan.ColRef{Index: i, Name: col.Name, Typ: col.Typ}, Col: col})
				}
			}
			return project(&c, append(exprs, positionCol(pos))), sets
		default: // *plan.Distinct
			return mergePositions(n.Schema().Cols, in, read.Link, sets), true
		}
	}
	out, sets := carry(n)
	width := len(n.Schema().Cols)
	if p, ok := out.(*plan.Project); ok {
		// A copy made above: its slot takes the position.
		p.Exprs[slot].Expr = p.Exprs[width].Expr
		p.Exprs, p.Sch = p.Exprs[:width], &plan.Schema{Cols: p.Sch.Cols[:width]}
		return p, sets
	}
	exprs := make([]plan.NamedExpr, width)
	for i, col := range n.Schema().Cols {
		exprs[i] = plan.NamedExpr{Expr: &plan.ColRef{Index: i, Name: col.Name, Typ: col.Typ}, Col: col}
	}
	exprs[slot].Expr = positionCol(width).Expr
	return project(out, exprs), sets
}

// mergePositions is a DISTINCT over in, whose columns are cols and a
// trailing position (or, with sets, the handle of a set of them): an
// Aggregate keyed on the visible columns only — a measure column has no
// value — whose POSITIONS call names the set of positions each output
// row merged, in the trailing column.
func mergePositions(cols []plan.Col, in plan.Node, link *plan.RowLink, sets bool) plan.Node {
	agg := &plan.Aggregate{Input: in, Sch: &plan.Schema{}}
	exprs := make([]plan.NamedExpr, len(cols), len(cols)+1)
	for i, col := range cols {
		if col.Measure != nil || col.Typ.Measure {
			exprs[i] = plan.NamedExpr{Expr: &plan.Lit{Val: sqltypes.Null(col.Typ.Kind)}, Col: col}
			continue
		}
		exprs[i] = plan.NamedExpr{Expr: &plan.ColRef{Index: len(agg.GroupExprs), Name: col.Name, Typ: col.Typ}, Col: col}
		agg.GroupExprs = append(agg.GroupExprs, &plan.ColRef{Index: i, Name: col.Name, Typ: col.Typ})
		agg.Sch.Cols = append(agg.Sch.Cols, col)
	}
	if len(agg.GroupExprs) == 0 {
		// A key all the same, so that no input makes no row.
		agg.GroupExprs = []plan.Expr{&plan.Lit{Val: sqltypes.NewBool(true)}}
		agg.Sch.Cols = []plan.Col{{Name: "key", Typ: sqltypes.Type{Kind: sqltypes.KindBool}}}
	}
	agg.Sets = [][]int{make([]int, len(agg.GroupExprs))}
	for j := range agg.Sets[0] {
		agg.Sets[0][j] = j
	}
	agg.Aggs = []plan.AggCall{positions(link, len(cols), sets)}
	agg.Sch.Cols = append(agg.Sch.Cols, positionCol(0).Col)
	return project(agg, append(exprs, positionCol(len(agg.Sch.Cols)-1)))
}

// project is a Project of exprs over in.
func project(in plan.Node, exprs []plan.NamedExpr) *plan.Project {
	sch := &plan.Schema{Cols: make([]plan.Col, len(exprs))}
	for i, ne := range exprs {
		sch.Cols[i] = ne.Col
	}
	return &plan.Project{Input: in, Exprs: exprs, Sch: sch}
}

// positionCol passes on the position column at index pos.
func positionCol(pos int) plan.NamedExpr {
	intT := sqltypes.Type{Kind: sqltypes.KindInt}
	return plan.NamedExpr{
		Expr: &plan.ColRef{Index: pos, Name: "position", Typ: intT},
		Col:  plan.Col{Name: "position", Typ: intT},
	}
}

// replaceAt returns a copy of the FROM tree n (with the WHERE Filter
// over it), whose row starts at column off, with rel's plan replaced by
// node; ok is false when rel is not found.
func replaceAt(n plan.Node, off int, rel *Rel, node plan.Node) (plan.Node, bool) {
	if off == rel.Offset && n == rel.node {
		return node, true
	}
	switch t := n.(type) {
	case *plan.Filter:
		in, ok := replaceAt(t.Input, off, rel, node)
		if !ok {
			return nil, false
		}
		c := *t
		c.Input = in
		return &c, true
	case *plan.Join:
		c := *t
		if l, ok := replaceAt(t.Left, off, rel, node); ok {
			c.Left = l
			return &c, true
		}
		if r, ok := replaceAt(t.Right, off+len(t.Left.Schema().Cols), rel, node); ok {
			c.Right = r
			return &c, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Definitions and re-export

// defineMeasure binds an AS MEASURE select item into MeasureInfo. The
// formula may reference sibling measures in the same SELECT (substituted
// at the AST level) and measures of the input table (composed through
// the shared base relation, paper §5.4); a measure of its own has base,
// the select's FROM rows that pass its WHERE clause.
func (b *Binder) defineMeasure(item *selItem, items []*selItem, fr *fromResult, base plan.Node, whereExpr plan.Expr) (*plan.MeasureInfo, error) {
	astExpr, err := substituteSiblings(item, items)
	if err != nil {
		return nil, err
	}
	eb := &exprBinder{b: b, scope: fr.scope, allowAgg: true, allowMeasures: true}
	raw, err := eb.bind(astExpr)
	if err != nil {
		return nil, err
	}

	var phs []*measurePH
	plan.WalkExprs(raw, func(x plan.Expr) {
		if ph, ok := x.(*measurePH); ok {
			phs = append(phs, ph)
		}
	})

	if len(phs) > 0 {
		return b.defineComposedMeasure(item, items, fr, whereExpr, raw, phs)
	}

	var aggs []plan.AggCall
	formula := plan.TransformExpr(raw, func(x plan.Expr) plan.Expr {
		if ph, ok := x.(*aggPH); ok {
			aggs = append(aggs, ph.call)
			return &plan.AggRef{Index: len(aggs) - 1, Typ: ph.call.Typ}
		}
		return x
	})
	if err := validateFormula(formula, item.alias); err != nil {
		return nil, err
	}
	return &plan.MeasureInfo{
		Name:      item.alias,
		ValueType: formula.Type().Scalar(),
		Base:      base,
		Formula:   formula,
		Aggs:      aggs,
		Dims:      measureDims(items, nil),
	}, nil
}

// defineComposedMeasure handles formulas that reference measures of the
// input table: the new measure shares the input measures' base relation,
// with this query's WHERE composed in through the dimension mapping.
func (b *Binder) defineComposedMeasure(item *selItem, items []*selItem, fr *fromResult, whereExpr plan.Expr, raw plan.Expr, phs []*measurePH) (*plan.MeasureInfo, error) {
	rel := phs[0].rel
	inputBase := phs[0].info.Base
	for _, ph := range phs {
		if ph.rel != rel || ph.info.Base != inputBase {
			return nil, fmt.Errorf("a measure formula may only combine measures sharing the same base table")
		}
		if len(ph.mods) > 0 {
			return nil, fmt.Errorf("AT and AGGREGATE are not supported inside measure definitions")
		}
	}
	mapping := dimMapping(rel, phs[0].info)

	base := inputBase
	if whereExpr != nil {
		mw, ok := mapWholeExpr(whereExpr, mapping)
		if !ok {
			return nil, fmt.Errorf("the WHERE clause cannot be composed into measure %s (it is not expressible over the input measure's dimensions)", item.alias)
		}
		base = &plan.Filter{Input: base, Pred: mw}
	}

	var aggs []plan.AggCall
	var xform func(plan.Expr) plan.Expr
	var xerr error
	xform = func(x plan.Expr) plan.Expr {
		switch x := x.(type) {
		case *aggPH:
			call := x.call
			args := make([]plan.Expr, len(call.Args))
			for i, a := range call.Args {
				mapped, ok := mapWholeExpr(a, mapping)
				if !ok && xerr == nil {
					xerr = fmt.Errorf("aggregate argument is not expressible over the input measure's base table")
				}
				args[i] = mapped
			}
			call.Args = args
			if call.Filter != nil {
				mf, ok := mapWholeExpr(call.Filter, mapping)
				if !ok && xerr == nil {
					xerr = fmt.Errorf("FILTER clause is not expressible over the input measure's base table")
				}
				call.Filter = mf
			}
			aggs = append(aggs, call)
			return &plan.AggRef{Index: len(aggs) - 1, Typ: call.Typ}
		case *measurePH:
			offset := len(aggs)
			aggs = append(aggs, x.info.Aggs...)
			return plan.ReplaceAggRefs(x.info.Formula, func(ar *plan.AggRef) plan.Expr {
				return &plan.AggRef{Index: ar.Index + offset, Typ: ar.Typ}
			})
		default:
			return x
		}
	}
	formula := plan.TransformExpr(raw, xform)
	if xerr != nil {
		return nil, xerr
	}
	if err := validateFormula(formula, item.alias); err != nil {
		return nil, err
	}
	return &plan.MeasureInfo{
		Name:      item.alias,
		ValueType: formula.Type().Scalar(),
		Base:      base,
		Formula:   formula,
		Aggs:      aggs,
		Dims:      measureDims(items, mapping),
	}, nil
}

// measureDims builds the dimension list from the select's non-measure
// items: name, and the bound expression (optionally remapped to the base
// row). Dimensions that cannot be expressed over the base become
// non-derivable (Expr nil) and fail only if a context later constrains
// them.
func measureDims(items []*selItem, mapping func(*plan.ColRef) (plan.Expr, bool)) []plan.Dim {
	var dims []plan.Dim
	for _, it := range items {
		if it.measureDef {
			continue
		}
		if _, isMeas := it.raw.(*measurePH); isMeas {
			continue
		}
		expr := it.raw
		if expr != nil && mapping != nil {
			if mapped, ok := mapWholeExpr(expr, mapping); ok {
				expr = mapped
			} else {
				expr = nil
			}
		}
		if expr != nil {
			if bad := validateModExpr(expr, ""); bad != nil {
				expr = nil
			}
		}
		dims = append(dims, plan.Dim{Name: it.alias, Expr: expr})
	}
	return dims
}

func validateFormula(formula plan.Expr, name string) error {
	var err error
	plan.WalkExprs(formula, func(x plan.Expr) {
		switch x.(type) {
		case *plan.ColRef:
			if err == nil {
				err = fmt.Errorf("measure %s: every column in a measure formula must be inside an aggregate function (measures must be aggregatable, paper §3.2)", name)
			}
		case *plan.CorrRef:
			if err == nil {
				err = fmt.Errorf("measure %s: correlated references are not allowed in measure formulas", name)
			}
		case *windowPH:
			if err == nil {
				err = fmt.Errorf("measure %s: window functions are not allowed in measure formulas", name)
			}
		case *plan.Subquery:
			if err == nil {
				err = fmt.Errorf("measure %s: subqueries are not allowed in measure formulas", name)
			}
		}
	})
	return err
}

// substituteSiblings inlines references to other AS MEASURE aliases of
// the same SELECT into the formula (composability, §5.4), rejecting
// cycles (the paper excludes recursive measures).
func substituteSiblings(item *selItem, items []*selItem) (ast.Expr, error) {
	siblings := map[string]ast.Expr{}
	for _, it := range items {
		if it.measureDef {
			// The item itself is included so that self-references are
			// caught by the cycle check below rather than misbinding.
			siblings[strings.ToLower(it.alias)] = it.astExpr
		}
	}
	var subst func(e ast.Expr, depth int, active map[string]bool) (ast.Expr, error)
	subst = func(e ast.Expr, depth int, active map[string]bool) (ast.Expr, error) {
		if depth > 32 {
			return nil, fmt.Errorf("measure definitions nest too deeply")
		}
		var serr error
		out := ast.TransformExpr(e, func(x ast.Expr) ast.Expr {
			id, ok := x.(*ast.Ident)
			if !ok || id.Qualifier() != "" || serr != nil {
				return x
			}
			key := strings.ToLower(id.Name())
			formula, isSibling := siblings[key]
			if !isSibling {
				return x
			}
			if active[key] {
				serr = fmt.Errorf("recursive measures are not supported (cycle through %s)", id.Name())
				return x
			}
			active[key] = true
			inner, err := subst(formula, depth+1, active)
			delete(active, key)
			if err != nil {
				serr = err
				return x
			}
			return inner
		})
		if serr != nil {
			return nil, serr
		}
		return out, nil
	}
	return subst(item.astExpr, 0, map[string]bool{strings.ToLower(item.alias): true})
}

// reexportMeasure adjusts a measure's metadata when a non-aggregating
// query projects it through: the query's WHERE is baked into the base
// relation (and "cannot be subverted", §3.5) and the dimensionality
// becomes the projected non-measure columns (§5.4).
func (b *Binder) reexportMeasure(ph *measurePH, alias string, items []*selItem, fr *fromResult, whereExpr plan.Expr) (*plan.MeasureInfo, error) {
	if fr.hasJoin {
		return nil, fmt.Errorf("cannot project measure %s through a join without aggregating; use AGGREGATE or AT", ph.info.Name)
	}
	mapping := dimMapping(ph.rel, ph.info)
	base := ph.info.Base
	if whereExpr != nil {
		mw, ok := mapWholeExpr(whereExpr, mapping)
		if !ok {
			return nil, fmt.Errorf("the WHERE clause cannot be baked into re-exported measure %s", ph.info.Name)
		}
		base = &plan.Filter{Input: base, Pred: mw}
	}
	return &plan.MeasureInfo{
		Name:      alias,
		ValueType: ph.info.ValueType,
		Base:      base,
		Formula:   ph.info.Formula,
		Aggs:      ph.info.Aggs,
		Dims:      measureDims(items, mapping),
	}, nil
}

// ---------------------------------------------------------------------------
// Inlining (paper §6.4)

// tryInline replaces a measure reference with plain aggregate calls on
// the enclosing Aggregate when that is provably equivalent: single
// grouping set, no join, every group key derivable from the measure's
// dimensions, the modifier chain is empty (requiring no query WHERE,
// since a bare measure ignores it) or exactly VISIBLE with every WHERE
// conjunct expressible over the dimensions, and the formula's aggregate
// arguments can be rewritten from the base row onto the FROM row. Under
// those conditions the measure's evaluation context is exactly the group
// partition, so no subquery is needed — this is the plan shape a
// measure-less SQL author would have written by hand.
func (ab *aggBinder) tryInline(ph *measurePH, mapping func(*plan.ColRef) (plan.Expr, bool)) (plan.Expr, bool) {
	if !ab.b.inline || ab.multiSets() || ab.fr.hasJoin {
		return nil, false
	}
	info := ph.info
	switch len(ph.mods) {
	case 0:
		if ab.whereExpr != nil {
			// A bare measure ignores the WHERE clause but the group
			// partition does not; only VISIBLE matches the partition.
			return nil, false
		}
	case 1:
		if _, ok := ph.mods[0].(*ast.AtVisible); !ok {
			return nil, false
		}
		if ab.whereExpr != nil {
			for _, c := range plan.SplitConj(ab.whereExpr) {
				if _, ok := mapWholeExpr(c, mapping); !ok {
					return nil, false
				}
			}
		}
	default:
		return nil, false
	}
	for _, g := range ab.groupExprs {
		if _, ok := mapWholeExpr(g, mapping); !ok {
			return nil, false
		}
	}

	// Inverse mapping: base column index -> FROM row index, available
	// when the dimension is a bare base column.
	inv := map[int]int{}
	k := 0
	for ci, col := range ph.rel.Cols {
		if col.Measure != nil || col.Typ.Measure {
			continue
		}
		if k >= len(info.Dims) {
			break
		}
		d := info.Dims[k]
		k++
		if cr, ok := d.Expr.(*plan.ColRef); ok {
			if _, exists := inv[cr.Index]; !exists {
				inv[cr.Index] = ph.rel.Offset + ci
			}
		}
	}
	invMap := func(e plan.Expr) (plan.Expr, bool) {
		ok := true
		out := plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
			switch x := x.(type) {
			case *plan.ColRef:
				if idx, found := inv[x.Index]; found {
					return &plan.ColRef{Index: idx, Name: x.Name, Typ: x.Typ}
				}
				ok = false
			case *plan.CorrRef, *plan.Subquery:
				ok = false
			}
			return x
		})
		return out, ok
	}

	calls := make([]plan.AggCall, len(info.Aggs))
	for i, call := range info.Aggs {
		args := make([]plan.Expr, len(call.Args))
		for j, a := range call.Args {
			mapped, ok := invMap(a)
			if !ok {
				return nil, false
			}
			args[j] = mapped
		}
		call.Args = args
		if call.Filter != nil {
			mf, ok := invMap(call.Filter)
			if !ok {
				return nil, false
			}
			call.Filter = mf
		}
		calls[i] = call
	}

	// Commit: register the aggregate calls and splice the formula.
	ab.b.inlined = append(ab.b.inlined, ph.info.Name)
	indexes := make([]int, len(calls))
	for i, call := range calls {
		indexes[i] = ab.addAgg(call)
	}
	result := plan.ReplaceAggRefs(info.Formula, func(ar *plan.AggRef) plan.Expr {
		i := indexes[ar.Index]
		return &plan.ColRef{Index: ab.aggOut(i), Name: "agg", Typ: ar.Typ}
	})
	return result, true
}
