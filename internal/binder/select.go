package binder

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// selItem is a select item after star expansion.
type selItem struct {
	astExpr    ast.Expr
	alias      string
	measureDef bool
	raw        plan.Expr // bound expression (set during binding)
}

func (b *Binder) bindSelect(sel *ast.Select, orderBy []ast.OrderItem, outer *Scope) (plan.Node, error) {
	fr, err := b.bindFrom(sel.From, outer)
	if err != nil {
		return nil, err
	}

	items, err := b.expandStars(sel, fr)
	if err != nil {
		return nil, err
	}

	// WHERE: measures used here evaluate in row context (paper Listing 12
	// query 4).
	var whereExpr plan.Expr
	if sel.Where != nil {
		eb := &exprBinder{b: b, scope: fr.scope, allowMeasures: true}
		raw, err := eb.bind(sel.Where)
		if err != nil {
			return nil, fmt.Errorf("in WHERE: %w", err)
		}
		raw, err = b.expandRowSite(raw, fr, nil)
		if err != nil {
			return nil, fmt.Errorf("in WHERE: %w", err)
		}
		if err := requireBool(raw, "WHERE"); err != nil {
			return nil, err
		}
		whereExpr = raw
	}

	if isAggregateQuery(sel, items) {
		return b.bindAggSelect(sel, items, orderBy, fr, whereExpr)
	}
	return b.bindPlainSelect(sel, items, orderBy, fr, whereExpr)
}

// expandStars flattens * and t.* select items into explicit items. The
// system column (catalog.SequenceColumn) is read only by name.
func (b *Binder) expandStars(sel *ast.Select, fr *fromResult) ([]*selItem, error) {
	var items []*selItem
	for _, item := range sel.Items {
		if !item.Star {
			alias := item.Alias
			if alias == "" {
				alias = inferName(item.Expr, len(items))
			}
			items = append(items, &selItem{astExpr: item.Expr, alias: alias, measureDef: item.Measure})
			continue
		}
		matched := false
		seenUsing := map[string]bool{}
		for _, rel := range fr.scope.rels {
			if item.StarTable != "" && !strings.EqualFold(rel.Alias, item.StarTable) {
				continue
			}
			matched = true
			for _, col := range rel.Cols {
				if strings.EqualFold(col.Name, catalog.SequenceColumn) {
					continue
				}
				// USING columns appear once in a * expansion.
				if item.StarTable == "" && rel.Using != nil && rel.Using[strings.ToLower(col.Name)] {
					if seenUsing[strings.ToLower(col.Name)] {
						continue
					}
					seenUsing[strings.ToLower(col.Name)] = true
				}
				ident := &ast.Ident{Parts: []string{rel.Alias, col.Name}}
				if rel.Alias == "" {
					ident = &ast.Ident{Parts: []string{col.Name}}
				}
				items = append(items, &selItem{astExpr: ident, alias: col.Name})
			}
		}
		if !matched {
			if item.StarTable != "" {
				return nil, fmt.Errorf("unknown table %s in %s.*", item.StarTable, item.StarTable)
			}
			return nil, fmt.Errorf("SELECT * requires a FROM clause")
		}
	}
	return items, nil
}

// isAggregateQuery decides whether the select computes aggregates: a
// GROUP BY or HAVING clause, or an aggregate function (including
// AGGREGATE) in the select list outside measure definitions.
func isAggregateQuery(sel *ast.Select, items []*selItem) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, item := range items {
		if item.measureDef {
			continue
		}
		if astHasAggCall(item.astExpr) {
			return true
		}
	}
	return false
}

func astHasAggCall(e ast.Expr) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if fc, ok := x.(*ast.FuncCall); ok {
			if fc.Over != nil {
				return false // window, not a group aggregate; don't descend
			}
			name := strings.ToUpper(fc.Name)
			if name == "AGGREGATE" || fn.IsAggName(name) || name == "GROUPING" {
				found = true
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Non-aggregate path

func (b *Binder) bindPlainSelect(sel *ast.Select, items []*selItem, orderBy []ast.OrderItem, fr *fromResult, whereExpr plan.Expr) (plan.Node, error) {
	var input plan.Node = fr.node
	if whereExpr != nil {
		input = &plan.Filter{Input: input, Pred: whereExpr}
	}
	// The rows of the measures defined here: the very node the select
	// reads, so a context link finds it on the select's plan.
	base := input

	// QUALIFY: bound with the select items so its window functions share
	// the Window node.
	var qualifyExpr plan.Expr
	if sel.Qualify != nil {
		eb := &exprBinder{b: b, scope: fr.scope, allowMeasures: true, allowWindow: true}
		raw, err := eb.bind(sel.Qualify)
		if err != nil {
			return nil, fmt.Errorf("in QUALIFY: %w", err)
		}
		raw, err = b.expandRowSite(raw, fr, whereExpr)
		if err != nil {
			return nil, fmt.Errorf("in QUALIFY: %w", err)
		}
		if err := requireBool(raw, "QUALIFY"); err != nil {
			return nil, err
		}
		qualifyExpr = raw
	}

	// Pass 1: bind non-measure-definition items.
	type outCol struct {
		expr   plan.Expr
		col    plan.Col
		reMeas *measurePH // bare measure reference to re-export
	}
	outs := make([]outCol, len(items))
	for i, item := range items {
		if item.measureDef {
			continue
		}
		eb := &exprBinder{b: b, scope: fr.scope, allowMeasures: true, allowWindow: true}
		raw, err := eb.bind(item.astExpr)
		if err != nil {
			return nil, fmt.Errorf("in SELECT item %d: %w", i+1, err)
		}
		item.raw = raw
		if ph, ok := raw.(*measurePH); ok && ph.bare && len(ph.mods) == 0 {
			// Closure property (§5.4): project the measure through.
			outs[i] = outCol{reMeas: ph}
			if b.expansions != nil {
				b.expansions[ph.id] = Expansion{Measure: ph.info}
			}
			continue
		}
		expanded, err := b.expandRowSite(raw, fr, whereExpr)
		if err != nil {
			return nil, fmt.Errorf("in SELECT item %d: %w", i+1, err)
		}
		outs[i] = outCol{expr: expanded, col: plan.Col{Name: item.alias, Typ: expanded.Type()}}
	}

	// Hoist window functions into a Window node.
	input = b.hoistWindows(input, func(f func(plan.Expr) plan.Expr) {
		for i := range outs {
			if outs[i].expr != nil {
				outs[i].expr = f(outs[i].expr)
			}
		}
		if qualifyExpr != nil {
			qualifyExpr = f(qualifyExpr)
		}
	})
	if qualifyExpr != nil {
		input = &plan.Filter{Input: input, Pred: qualifyExpr}
	}

	// Pass 2: measure definitions (they may reference sibling measures).
	for i, item := range items {
		if !item.measureDef {
			continue
		}
		info, err := b.defineMeasure(item, items, fr, base, whereExpr)
		if err != nil {
			return nil, fmt.Errorf("in measure %s: %w", item.alias, err)
		}
		outs[i] = outCol{
			expr: &plan.Lit{Val: sqltypes.Null(info.ValueType.Kind)},
			col:  plan.Col{Name: item.alias, Typ: info.ValueType.AsMeasure(), Measure: info},
		}
	}

	// Re-exports (need the final item list for dimensionality).
	for i := range outs {
		if outs[i].reMeas == nil {
			continue
		}
		info, err := b.reexportMeasure(outs[i].reMeas, items[i].alias, items, fr, whereExpr)
		if err != nil {
			return nil, fmt.Errorf("in SELECT item %d: %w", i+1, err)
		}
		outs[i] = outCol{
			expr: &plan.Lit{Val: sqltypes.Null(info.ValueType.Kind)},
			col:  plan.Col{Name: items[i].alias, Typ: info.ValueType.AsMeasure(), Measure: info},
		}
	}

	exprs := make([]plan.NamedExpr, len(outs))
	sch := &plan.Schema{Cols: make([]plan.Col, len(outs))}
	for i, o := range outs {
		exprs[i] = plan.NamedExpr{Expr: o.expr, Col: o.col}
		sch.Cols[i] = o.col
	}
	node := plan.Node(&plan.Project{Input: input, Exprs: exprs, Sch: sch})

	return b.finishSelect(node, sel.Distinct, orderBy, items, func(e ast.Expr) (plan.Expr, error) {
		eb := &exprBinder{b: b, scope: fr.scope, allowMeasures: true}
		raw, err := eb.bind(e)
		if err != nil {
			return nil, err
		}
		return b.expandRowSite(raw, fr, whereExpr)
	}, input)
}

// hoistWindows scans the current output expressions for window
// placeholders, builds a Window node computing them over input, and
// rewrites the placeholders into column references. The rewrite callback
// lets the caller apply the transformation to its expression slots. It
// returns the node projections should now read from.
func (b *Binder) hoistWindows(input plan.Node, each func(func(plan.Expr) plan.Expr)) plan.Node {
	width := len(input.Schema().Cols)
	var funcs []plan.WindowFunc
	index := map[string]int{}
	rewrite := func(e plan.Expr) plan.Expr {
		return plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
			ph, ok := x.(*windowPH)
			if !ok {
				return x
			}
			key := fmt.Sprintf("%v", ph.fn)
			idx, seen := index[key]
			if !seen {
				idx = len(funcs)
				index[key] = idx
				funcs = append(funcs, ph.fn)
			}
			return &plan.ColRef{Index: width + idx, Name: fmt.Sprintf("win%d", idx), Typ: ph.fn.Typ}
		})
	}
	each(rewrite)
	if len(funcs) == 0 {
		return input
	}
	sch := &plan.Schema{Cols: append([]plan.Col{}, input.Schema().Cols...)}
	for i, f := range funcs {
		sch.Cols = append(sch.Cols, plan.Col{Name: fmt.Sprintf("win%d", i), Typ: f.Typ})
	}
	return &plan.Window{Input: input, Funcs: funcs, Sch: sch}
}

// finishSelect applies DISTINCT and ORDER BY (with hidden sort columns
// when the sort expression is not in the output).
func (b *Binder) finishSelect(node plan.Node, distinct bool, orderBy []ast.OrderItem, items []*selItem, bindOrderExpr func(ast.Expr) (plan.Expr, error), sortInput plan.Node) (plan.Node, error) {
	if distinct {
		node = &plan.Distinct{Input: node}
	}
	if len(orderBy) == 0 {
		return node, nil
	}

	proj, isProj := node.(*plan.Project)
	sch := node.Schema()
	var sortItems []plan.SortItem
	var hidden []plan.NamedExpr

	for _, item := range orderBy {
		idx := -1
		switch e := item.Expr.(type) {
		case *ast.NumberLit:
			if !e.IsInt || e.Int < 1 || int(e.Int) > len(sch.Cols) {
				return nil, fmt.Errorf("ORDER BY position %s is out of range", e.Text)
			}
			idx = int(e.Int) - 1
		case *ast.Ident:
			if e.Qualifier() == "" {
				for j, it := range items {
					if strings.EqualFold(it.alias, e.Name()) {
						idx = j
						break
					}
				}
			}
		}
		if idx >= 0 {
			if sch.Cols[idx].Measure != nil {
				return nil, fmt.Errorf("cannot ORDER BY measure column %s; use AGGREGATE", sch.Cols[idx].Name)
			}
			sortItems = append(sortItems, plan.SortItem{
				Expr:       &plan.ColRef{Index: idx, Name: sch.Cols[idx].Name, Typ: sch.Cols[idx].Typ},
				Desc:       item.Desc,
				NullsFirst: nullsFirst(item),
			})
			continue
		}
		// General expression: bind it and add a hidden column.
		if !isProj {
			return nil, fmt.Errorf("ORDER BY expression must be an output column name or ordinal here")
		}
		if distinct {
			return nil, fmt.Errorf("with SELECT DISTINCT, ORDER BY expressions must appear in the select list")
		}
		bound, err := bindOrderExpr(item.Expr)
		if err != nil {
			return nil, fmt.Errorf("in ORDER BY: %w", err)
		}
		// Reuse an existing projection if it is the same expression.
		for j, ne := range proj.Exprs {
			if ne.Expr.String() == bound.String() {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(proj.Exprs) + len(hidden)
			hidden = append(hidden, plan.NamedExpr{Expr: bound, Col: plan.Col{Name: fmt.Sprintf("sort%d", len(hidden)), Typ: bound.Type()}})
		}
		sortItems = append(sortItems, plan.SortItem{
			Expr:       &plan.ColRef{Index: idx, Typ: bound.Type(), Name: "sort"},
			Desc:       item.Desc,
			NullsFirst: nullsFirst(item),
		})
	}

	if len(hidden) > 0 {
		wide := &plan.Project{
			Input: sortInput,
			Exprs: append(append([]plan.NamedExpr{}, proj.Exprs...), hidden...),
		}
		wideSch := &plan.Schema{Cols: make([]plan.Col, len(wide.Exprs))}
		for i, ne := range wide.Exprs {
			wideSch.Cols[i] = ne.Col
		}
		wide.Sch = wideSch
		sorted := &plan.Sort{Input: wide, Items: sortItems}
		// Strip the hidden columns.
		finalExprs := make([]plan.NamedExpr, len(proj.Exprs))
		finalSch := &plan.Schema{Cols: make([]plan.Col, len(proj.Exprs))}
		for i, ne := range proj.Exprs {
			finalExprs[i] = plan.NamedExpr{
				Expr: &plan.ColRef{Index: i, Name: ne.Col.Name, Typ: ne.Col.Typ},
				Col:  ne.Col,
			}
			finalSch.Cols[i] = ne.Col
		}
		return &plan.Project{Input: sorted, Exprs: finalExprs, Sch: finalSch}, nil
	}
	return &plan.Sort{Input: node, Items: sortItems}, nil
}
