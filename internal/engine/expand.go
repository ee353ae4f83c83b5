package engine

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/binder"
	"github.com/measures-sql/msql/internal/core"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// ExpandQuery rewrites a query that uses measures into measure-free SQL,
// the paper's §4.2 static-rewrite strategy shown in Listings 5 and 11:
// each measure reference becomes a correlated scalar subquery over the
// measure's base table whose WHERE clause is the evaluation context. The
// context is the one the binder built to execute the query, printed
// (contextSQL), so the printed and the executed expansion cannot differ.
// The returned text re-parses and executes on this same engine, and the
// golden tests assert it produces identical results to the measure query.
//
// Supported shape: a SELECT whose FROM is a single view, CTE or derived
// table defining measures (or any measure-free query, returned
// unchanged); GROUP BY of plain expressions. Joins, ROLLUP, a bare
// re-export and a context this file cannot print (a link to the group's
// rows, a GROUPING guard) are refused with an error; the executable
// rewrite still evaluates them.
func (s *Session) ExpandQuery(q *ast.Query) (string, error) {
	uses, err := binder.New(s.cat).WithInline(false).Expansions(q)
	if err != nil {
		return "", err
	}
	out, err := s.expandQueryAST(q, uses)
	if err != nil {
		return "", err
	}
	return ast.FormatQuery(out), nil
}

type measureDef struct {
	formula ast.Expr
}

// expander holds the rewrite context for one SELECT.
type expander struct {
	uses       map[*ast.Ident]binder.Expansion
	measures   map[string]*measureDef
	dims       map[string]ast.Expr // dim name -> expression over base columns
	dimOrder   []string
	baseFrom   ast.TableExpr // measure base relation (view's FROM or derived)
	baseWhere  ast.Expr      // view's own WHERE (baked in)
	outerAlias string
	innerAlias string
}

func (s *Session) expandQueryAST(q *ast.Query, uses map[*ast.Ident]binder.Expansion) (*ast.Query, error) {
	sel, ok := q.Body.(*ast.Select)
	if !ok {
		return q, nil
	}

	// Locate the measure-providing relation.
	inner, alias, err := s.providerSelect(q, sel.From)
	if err != nil {
		return nil, err
	}
	if inner == nil {
		if len(uses) > 0 {
			// The measures come through a relation that only re-exports
			// them: it holds no formula to expand.
			return nil, fmt.Errorf("EXPAND: %s re-exports measures it does not define; expand a query over the view that defines them", relationName(sel.From))
		}
		return q, nil // no measures anywhere; nothing to do
	}

	ex := &expander{
		uses:       uses,
		measures:   map[string]*measureDef{},
		dims:       map[string]ast.Expr{},
		outerAlias: alias,
		innerAlias: "i",
	}
	if strings.EqualFold(ex.outerAlias, "i") {
		ex.innerAlias = "i2"
	}
	if err := ex.loadProvider(inner); err != nil {
		return nil, err
	}
	if len(ex.measures) == 0 {
		return q, nil
	}

	aggregate := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		aggregate = aggregate || !item.Star && astUsesAgg(item.Expr)
	}
	for _, g := range sel.GroupBy {
		if g.Kind != ast.GroupExpr {
			return nil, fmt.Errorf("EXPAND does not support ROLLUP/CUBE/GROUPING SETS (the executable rewrite does)")
		}
	}

	// Rewrite the select items, HAVING, WHERE and ORDER BY.
	newSel := *sel
	newSel.Items = make([]ast.SelectItem, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("EXPAND does not support SELECT * over a table with measures; list the columns")
		}
		if item.Measure {
			return nil, fmt.Errorf("EXPAND does not support redefining measures; expand the consuming query instead")
		}
		rewritten, err := ex.rewriteExpr(item.Expr)
		if err != nil {
			return nil, err
		}
		newSel.Items[i] = ast.SelectItem{Expr: rewritten, Alias: item.Alias}
	}
	if sel.Having != nil {
		h, err := ex.rewriteExpr(sel.Having)
		if err != nil {
			return nil, err
		}
		newSel.Having = h
	}
	if sel.Where != nil {
		w, err := ex.rewriteExpr(sel.Where)
		if err != nil {
			return nil, err
		}
		newSel.Where = w
	}

	// Replace the FROM with the measure-free provider. Special case: a
	// global aggregate query (no GROUP BY) whose aggregates were all
	// measures now consists solely of uncorrelated scalar subqueries — it
	// must still return exactly one row, so the outer FROM and WHERE are
	// dropped (grouped queries keep their GROUP BY and stay aggregates).
	if aggregate && len(sel.GroupBy) == 0 && !selectTouchesOuter(&newSel) {
		newSel.From = nil
		newSel.Where = nil
	} else {
		newSel.From = ex.measureFreeFrom()
	}

	newQuery := *q
	newQuery.Body = &newSel
	if len(q.OrderBy) > 0 {
		newQuery.OrderBy = make([]ast.OrderItem, len(q.OrderBy))
		for i, o := range q.OrderBy {
			ro, err := ex.rewriteExpr(o.Expr)
			if err != nil {
				return nil, err
			}
			o.Expr = ro
			newQuery.OrderBy[i] = o
		}
	}
	return &newQuery, nil
}

// providerSelect finds the SELECT that defines the measures used by the
// query: a view, a CTE of this query, or a derived table. Returns nil if
// the FROM has no measure definitions.
func (s *Session) providerSelect(q *ast.Query, from ast.TableExpr) (*ast.Select, string, error) {
	switch from := from.(type) {
	case *ast.TableName:
		alias := from.Alias
		if alias == "" {
			alias = "o"
		}
		var def *ast.Query
		for _, cte := range q.With {
			if strings.EqualFold(cte.Name, from.Name) {
				def = cte.Query
			}
		}
		if def == nil {
			if v, ok := s.cat.View(from.Name); ok {
				def = v.Query
			}
		}
		if def == nil {
			return nil, "", nil // base table: no measures
		}
		sel, ok := def.Body.(*ast.Select)
		if !ok {
			return nil, "", nil
		}
		if !selectHasMeasures(sel) {
			return nil, "", nil
		}
		return sel, alias, nil
	case *ast.SubqueryTable:
		alias := from.Alias
		if alias == "" {
			alias = "o"
		}
		sel, ok := from.Query.Body.(*ast.Select)
		if !ok || !selectHasMeasures(sel) {
			return nil, "", nil
		}
		return sel, alias, nil
	case *ast.JoinExpr:
		// Joins: only reject when a side defines measures.
		for _, side := range []ast.TableExpr{from.Left, from.Right} {
			inner, _, err := s.providerSelect(q, side)
			if err != nil {
				return nil, "", err
			}
			if inner != nil {
				return nil, "", fmt.Errorf("EXPAND does not support measures under joins (the executable rewrite does)")
			}
		}
		return nil, "", nil
	default:
		return nil, "", nil
	}
}

// relationName names a FROM relation in an error.
func relationName(from ast.TableExpr) string {
	switch from := from.(type) {
	case *ast.TableName:
		return from.Name
	case *ast.SubqueryTable:
		if from.Alias != "" {
			return "derived table " + from.Alias
		}
		return "a derived table"
	default:
		return "the FROM clause"
	}
}

func selectHasMeasures(sel *ast.Select) bool {
	for _, item := range sel.Items {
		if item.Measure {
			return true
		}
	}
	return false
}

// loadProvider captures the provider's measures, dimensions, base FROM
// and baked WHERE.
func (ex *expander) loadProvider(sel *ast.Select) error {
	if len(sel.GroupBy) > 0 {
		return fmt.Errorf("EXPAND: measure-defining queries must not have GROUP BY")
	}
	ex.baseFrom = sel.From
	ex.baseWhere = sel.Where
	for _, item := range sel.Items {
		switch {
		case item.Measure:
			ex.measures[strings.ToLower(item.Alias)] = &measureDef{formula: item.Expr}
		case item.Star:
			// Star: dims are the base table's columns, passed through.
			// The sentinel makes measureFreeFrom keep the "*" item.
			ex.dims["*"] = nil
		default:
			name := item.Alias
			if name == "" {
				if id, ok := item.Expr.(*ast.Ident); ok {
					name = id.Name()
				} else {
					return fmt.Errorf("EXPAND: measure-defining query has an unnamed computed column")
				}
			}
			ex.dims[strings.ToLower(name)] = item.Expr
			ex.dimOrder = append(ex.dimOrder, name)
		}
	}
	// Sibling references inside measure formulas.
	for name, def := range ex.measures {
		expanded, err := ex.substituteMeasureRefs(def.formula, map[string]bool{name: true}, 0)
		if err != nil {
			return err
		}
		def.formula = expanded
	}
	return nil
}

func (ex *expander) substituteMeasureRefs(e ast.Expr, active map[string]bool, depth int) (ast.Expr, error) {
	if depth > 32 {
		return nil, fmt.Errorf("measure definitions nest too deeply")
	}
	var serr error
	out := ast.TransformExpr(e, func(x ast.Expr) ast.Expr {
		id, ok := x.(*ast.Ident)
		if !ok || serr != nil {
			return x
		}
		key := strings.ToLower(id.Name())
		def, isMeasure := ex.measures[key]
		if !isMeasure {
			return x
		}
		if active[key] {
			serr = fmt.Errorf("recursive measures are not supported (cycle through %s)", id.Name())
			return x
		}
		active[key] = true
		inner, err := ex.substituteMeasureRefs(def.formula, active, depth+1)
		delete(active, key)
		if err != nil {
			serr = err
			return x
		}
		return inner
	})
	return out, serr
}

// measureFreeFrom builds the replacement FROM clause: the base table
// directly when the provider was just "* plus measures" with no WHERE,
// otherwise a derived table of the non-measure columns.
func (ex *expander) measureFreeFrom() ast.TableExpr {
	_, hasStar := ex.dims["*"]
	if hasStar && len(ex.dimOrder) == 0 && ex.baseWhere == nil {
		if tn, ok := ex.baseFrom.(*ast.TableName); ok {
			return &ast.TableName{Name: tn.Name, Alias: ex.outerAlias}
		}
	}
	items := []ast.SelectItem{}
	if hasStar {
		items = append(items, ast.SelectItem{Star: true})
	}
	for _, name := range ex.dimOrder {
		items = append(items, ast.SelectItem{Expr: ex.dims[strings.ToLower(name)], Alias: name})
	}
	return &ast.SubqueryTable{
		Query: &ast.Query{Body: &ast.Select{Items: items, From: ex.baseFrom, Where: ex.baseWhere}},
		Alias: ex.outerAlias,
	}
}

// selectTouchesOuter reports whether the rewritten select still needs its
// FROM clause: a plain aggregate function or any column reference outside
// the generated scalar subqueries. ast.WalkExpr does not descend into
// subqueries, which is exactly the scoping needed here.
func selectTouchesOuter(sel *ast.Select) bool {
	touched := false
	check := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			switch x.(type) {
			case *ast.Ident:
				touched = true
			case *ast.FuncCall:
				if astUsesAgg(x) {
					touched = true
				}
			}
			return true
		})
	}
	for _, item := range sel.Items {
		if item.Star {
			return true
		}
		check(item.Expr)
	}
	if sel.Having != nil {
		check(sel.Having)
	}
	return touched
}

func astUsesAgg(e ast.Expr) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if fc, ok := x.(*ast.FuncCall); ok && fc.Over == nil {
			name := strings.ToUpper(fc.Name)
			if name == "AGGREGATE" || fn.IsAggName(name) || name == "GROUPING" {
				found = true
			}
		}
		return true
	})
	return found
}

// rewriteExpr replaces each measure reference in e, with the AT,
// AGGREGATE or EVAL around it, by the correlated subquery of its
// expansion. The transform is bottom-up: the reference's identifier
// becomes the subquery, which then replaces each wrapper it is the
// operand of.
func (ex *expander) rewriteExpr(e ast.Expr) (ast.Expr, error) {
	var rerr error
	made := map[ast.Expr]bool{}
	out := ast.TransformExpr(e, func(x ast.Expr) ast.Expr {
		if rerr != nil {
			return x
		}
		switch x := x.(type) {
		case *ast.Ident:
			if u, ok := ex.uses[x]; ok {
				sub, err := ex.measureSubquery(u)
				if err != nil {
					rerr = err
					return x
				}
				made[sub] = true
				return sub
			}
		case *ast.At:
			if made[x.X] {
				return x.X
			}
		case *ast.FuncCall:
			// Only AGGREGATE and EVAL are peeled; any other call, such
			// as ROUND or ABS, keeps the subquery as its argument.
			if (strings.EqualFold(x.Name, "AGGREGATE") || strings.EqualFold(x.Name, "EVAL")) &&
				len(x.Args) == 1 && made[x.Args[0]] {
				return x.Args[0]
			}
		}
		return x
	})
	return out, rerr
}

// ---------------------------------------------------------------------------
// Subquery assembly

// measureSubquery builds the correlated scalar subquery of measure
// reference u — the textual form of the paper's computeM(rowPredicate)
// call (Listing 5 / Listing 11): the measure's formula over its base
// relation, whose WHERE clause is the baked WHERE and the reference's
// context.
func (ex *expander) measureSubquery(u binder.Expansion) (ast.Expr, error) {
	if u.Context == nil {
		return nil, fmt.Errorf("EXPAND: %s is a re-export of the measure, which has no expansion; evaluate it with AGGREGATE or AT", u.Measure.Name)
	}
	def, ok := ex.measures[strings.ToLower(u.Measure.Name)]
	if !ok {
		return nil, fmt.Errorf("EXPAND: measure %s is not defined by the query's FROM", u.Measure.Name)
	}
	formula, err := ex.iRewrite(def.formula)
	if err != nil {
		return nil, err
	}
	// The formula reads the measure's base rows. A measure composed from
	// measures of the provider's FROM reads their base rows, which are not
	// that FROM's, and its formula names their measures.
	base := u.Measure.Base.Schema().Cols
	ast.WalkExpr(formula, func(x ast.Expr) bool {
		if id, ok := x.(*ast.Ident); ok && id.Qualifier() == ex.innerAlias && baseIndex(base, id.Name()) < 0 && err == nil {
			err = fmt.Errorf("EXPAND: measure %s: %s is not a column of its base rows", u.Measure.Name, id.Name())
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	var where ast.Expr
	and := func(e ast.Expr) {
		if where == nil {
			where = e
		} else {
			where = &ast.Binary{Op: "AND", L: where, R: e}
		}
	}
	if ex.baseWhere != nil {
		bw, err := ex.iRewrite(ex.baseWhere)
		if err != nil {
			return nil, err
		}
		and(bw)
	}
	ctx, err := ex.contextSQL(u)
	if err != nil {
		return nil, fmt.Errorf("EXPAND: measure %s: %w", u.Measure.Name, err)
	}
	for _, c := range ctx {
		and(c)
	}

	from, err := ex.innerFrom()
	if err != nil {
		return nil, err
	}
	return &ast.ScalarSubquery{Query: &ast.Query{Body: &ast.Select{
		Items: []ast.SelectItem{{Expr: formula}},
		From:  from,
		Where: where,
	}}}, nil
}

// innerFrom renders the measure's base relation aliased for the
// subquery. A plain table keeps its name; anything else becomes a
// derived table.
func (ex *expander) innerFrom() (ast.TableExpr, error) {
	switch f := ex.baseFrom.(type) {
	case *ast.TableName:
		return &ast.TableName{Name: f.Name, Alias: ex.innerAlias}, nil
	case *ast.SubqueryTable:
		return &ast.SubqueryTable{Query: f.Query, Alias: ex.innerAlias}, nil
	case *ast.JoinExpr:
		return &ast.SubqueryTable{
			Query: &ast.Query{Body: &ast.Select{Items: []ast.SelectItem{{Star: true}}, From: f}},
			Alias: ex.innerAlias,
		}, nil
	default:
		return nil, fmt.Errorf("EXPAND: unsupported base relation %T", ex.baseFrom)
	}
}

// contextSQL prints the conjuncts of u's context, reified by
// core.Context.Predicate: a column of the measure's base row is the inner
// alias's; a reference to the call site is, at an aggregate site, the
// group key it names over the outer alias, and at a row site the outer
// alias's column.
func (ex *expander) contextSQL(u binder.Expansion) ([]ast.Expr, error) {
	for _, t := range u.Context.Terms {
		switch {
		case t.Kind == core.TermLink:
			return nil, fmt.Errorf("the context is linked to the group's rows, which has no SQL form here")
		case t.Grouping != nil:
			return nil, fmt.Errorf("the context holds a GROUPING guard on dimension %s, which has no SQL form here", t.Dim)
		}
	}
	pred, err := u.Context.Predicate()
	if err != nil || pred == nil {
		return nil, err
	}
	base := u.Measure.Base.Schema().Cols
	innerCol := func(c *plan.ColRef) (ast.Expr, error) {
		name := base[c.Index].Name
		if baseIndex(base, name) != c.Index {
			return nil, fmt.Errorf("column %s of its base rows is hidden by another of that name", name)
		}
		return &ast.Ident{Parts: []string{ex.innerAlias, name}}, nil
	}
	outerCol := func(c *plan.ColRef) (ast.Expr, error) {
		return &ast.Ident{Parts: []string{ex.outerAlias, c.Name}}, nil
	}
	noCorr := func(c *plan.CorrRef) (ast.Expr, error) {
		return nil, fmt.Errorf("a reference to an enclosing query's row (%s) has no SQL form here", c)
	}
	site := func(c *plan.CorrRef) (ast.Expr, error) {
		switch {
		case c.Levels != 1:
			return noCorr(c)
		case u.Keys != nil:
			return sqlOf(u.Keys[c.Index], outerCol, noCorr)
		}
		return &ast.Ident{Parts: []string{ex.outerAlias, c.Name}}, nil
	}
	conj := plan.SplitConj(pred)
	out := make([]ast.Expr, len(conj))
	for i, c := range conj {
		if out[i], err = sqlOf(c, innerCol, site); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// baseIndex is the index of the column of base, the row of a measure
// subquery's inner alias, that name resolves to in the printed SQL: the
// first of that name, as a USING join's column resolves; -1 if none.
func baseIndex(base []plan.Col, name string) int {
	for i, c := range base {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// sqlOf converts plan expression e back to SQL; col prints a column of
// the row e is over and corr a reference to an enclosing row. An
// expression kind it does not know is an error that names it.
func sqlOf(e plan.Expr, col func(*plan.ColRef) (ast.Expr, error), corr func(*plan.CorrRef) (ast.Expr, error)) (ast.Expr, error) {
	var err error
	sql := func(x plan.Expr) ast.Expr {
		if x == nil || err != nil {
			return nil
		}
		var out ast.Expr
		out, err = sqlOf(x, col, corr)
		return out
	}
	sqls := func(xs []plan.Expr) []ast.Expr {
		out := make([]ast.Expr, len(xs))
		for i, x := range xs {
			out[i] = sql(x)
		}
		return out
	}
	var out ast.Expr
	switch e := e.(type) {
	case *plan.ColRef:
		return col(e)
	case *plan.CorrRef:
		return corr(e)
	case *plan.Lit:
		return litSQL(e.Val)
	case *plan.Call:
		args := sqls(e.Args)
		switch e.Name {
		case "NEG":
			out = &ast.Unary{Op: "-", X: args[0]}
		case "+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE":
			out = &ast.Binary{Op: e.Name, L: args[0], R: args[1]}
		default:
			out = &ast.FuncCall{Name: e.Name, Args: args}
		}
	case *plan.And:
		out = &ast.Binary{Op: "AND", L: sql(e.L), R: sql(e.R)}
	case *plan.Or:
		out = &ast.Binary{Op: "OR", L: sql(e.L), R: sql(e.R)}
	case *plan.Not:
		out = &ast.Unary{Op: "NOT", X: sql(e.X)}
	case *plan.IsNull:
		out = &ast.IsNull{X: sql(e.X), Not: e.Neg}
	case *plan.IsDistinct:
		out = &ast.IsDistinct{L: sql(e.L), R: sql(e.R), Not: e.Neg}
	case *plan.InList:
		out = &ast.InList{X: sql(e.X), List: sqls(e.List), Not: e.Neg}
	case *plan.Case:
		c := &ast.Case{Whens: make([]ast.When, len(e.Whens)), Else: sql(e.Else)}
		for i, w := range e.Whens {
			c.Whens[i] = ast.When{Cond: sql(w.Cond), Then: sql(w.Then)}
		}
		out = c
	case *plan.Cast:
		out = &ast.Cast{X: sql(e.X), TypeName: e.Kind.String()}
	default:
		return nil, fmt.Errorf("a %T has no SQL form here", e)
	}
	return out, err
}

// litSQL is the SQL literal of v.
func litSQL(v sqltypes.Value) (ast.Expr, error) {
	if v.Null {
		return &ast.NullLit{}, nil
	}
	switch v.K {
	case sqltypes.KindBool:
		return &ast.BoolLit{Val: v.B}, nil
	case sqltypes.KindInt, sqltypes.KindFloat:
		return &ast.NumberLit{Text: v.SQLLiteral()}, nil
	case sqltypes.KindString:
		return &ast.StringLit{Val: v.S}, nil
	case sqltypes.KindDate:
		return &ast.DateLit{Val: v.Time().Format("2006-01-02")}, nil
	}
	return nil, fmt.Errorf("the literal %s has no SQL form here", v)
}

// iRewrite maps an expression written over the measure table's columns
// onto the base relation: projected dimensions expand to their defining
// expressions, and every remaining bare column is qualified with the
// inner alias.
func (ex *expander) iRewrite(e ast.Expr) (ast.Expr, error) {
	var rerr error
	var rewrite func(e ast.Expr, depth int) ast.Expr
	rewrite = func(e ast.Expr, depth int) ast.Expr {
		if depth > 32 {
			rerr = fmt.Errorf("dimension definitions nest too deeply")
			return e
		}
		return ast.TransformExpr(e, func(x ast.Expr) ast.Expr {
			id, ok := x.(*ast.Ident)
			if !ok || rerr != nil {
				return x
			}
			q := id.Qualifier()
			if q != "" && !strings.EqualFold(q, ex.outerAlias) && !strings.EqualFold(q, ex.innerAlias) {
				return x
			}
			if _, isMeasure := ex.measures[strings.ToLower(id.Name())]; isMeasure {
				rerr = fmt.Errorf("measure %s cannot appear inside this expression when expanding", id.Name())
				return x
			}
			if dimExpr, ok := ex.dims[strings.ToLower(id.Name())]; ok && dimExpr != nil {
				if _, isIdent := dimExpr.(*ast.Ident); !isIdent || dimExpr.(*ast.Ident).Name() != id.Name() {
					return rewrite(dimExpr, depth+1)
				}
			}
			return &ast.Ident{Parts: []string{ex.innerAlias, id.Name()}}
		})
	}
	out := rewrite(e, 0)
	return out, rerr
}
