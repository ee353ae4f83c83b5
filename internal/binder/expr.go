package binder

import (
	"fmt"
	"strings"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/core"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Placeholder expression nodes: they implement plan.Expr so they can live
// in partially-bound trees, but the binder replaces all of them before a
// plan leaves the package.

// aggPH marks an aggregate function call; the aggregate-query rewrite
// hoists it into the Aggregate node and replaces it with a column
// reference. For GROUPING, Args holds the bound argument to be matched
// against a group expression.
type aggPH struct {
	call plan.AggCall
}

func (p *aggPH) Type() sqltypes.Type { return p.call.Typ }
func (p *aggPH) String() string      { return "aggPH{" + p.call.String() + "}" }

// windowPH marks a window function; the select binder hoists it into a
// Window node.
type windowPH struct {
	fn plan.WindowFunc
}

func (p *windowPH) Type() sqltypes.Type { return p.fn.Typ }
func (p *windowPH) String() string      { return "windowPH{" + p.fn.Name + "}" }

// measurePH marks a measure reference together with its collected AT
// modifier chain (in application order). id is the reference's
// identifier; bare reports whether the raw reference was a plain column
// reference (re-exportable through a non-aggregating projection — the
// closure property of §5.4).
type measurePH struct {
	info *plan.MeasureInfo
	rel  *Rel
	id   *ast.Ident
	mods []ast.AtMod
	bare bool
}

func (p *measurePH) Type() sqltypes.Type { return p.info.ValueType.AsMeasure() }
func (p *measurePH) String() string      { return "measurePH{" + p.info.Name + "}" }

// exprBinder binds one expression within a scope.
type exprBinder struct {
	b     *Binder
	scope *Scope
	// allowAgg permits aggregate function calls (SELECT/HAVING of an
	// aggregate query, and measure formulas).
	allowAgg bool
	// allowWindow permits window functions (SELECT list only).
	allowWindow bool
	// allowMeasures permits measure references.
	allowMeasures bool
	// inAgg is set while binding an aggregate's arguments.
	inAgg bool
	// currentCtx, when non-nil, resolves CURRENT dim (only inside AT
	// modifier expressions).
	currentCtx *core.Context
}

func (eb *exprBinder) bind(e ast.Expr) (plan.Expr, error) {
	switch e := e.(type) {
	case *ast.NumberLit:
		if e.IsInt {
			return &plan.Lit{Val: sqltypes.NewInt(e.Int)}, nil
		}
		return &plan.Lit{Val: sqltypes.NewFloat(e.Float)}, nil
	case *ast.StringLit:
		return &plan.Lit{Val: sqltypes.NewString(e.Val)}, nil
	case *ast.BoolLit:
		return &plan.Lit{Val: sqltypes.NewBool(e.Val)}, nil
	case *ast.NullLit:
		return &plan.Lit{Val: sqltypes.Null(sqltypes.KindUnknown)}, nil
	case *ast.DateLit:
		v, err := sqltypes.ParseDate(e.Val)
		if err != nil {
			return nil, err
		}
		return &plan.Lit{Val: v}, nil

	case *ast.Param:
		if eb.b.params == nil {
			return nil, fmt.Errorf("parameter $%d outside a prepared statement", e.Index)
		}
		if e.Index < 1 || e.Index > len(eb.b.params) {
			return nil, fmt.Errorf("parameter $%d out of range (statement has %d parameters)", e.Index, len(eb.b.params))
		}
		return &plan.Param{Index: e.Index - 1, Typ: sqltypes.Type{Kind: eb.b.params[e.Index-1]}}, nil

	case *ast.Ident:
		return eb.bindIdent(e)

	case *ast.Unary:
		x, err := eb.bind(e.X)
		if err != nil {
			return nil, err
		}
		if e.Op == "NOT" {
			if err := requireBool(x, "NOT operand"); err != nil {
				return nil, err
			}
			return &plan.Not{X: x}, nil
		}
		return eb.call("NEG", []plan.Expr{x})

	case *ast.Binary:
		return eb.bindBinary(e)

	case *ast.IsNull:
		x, err := eb.bind(e.X)
		if err != nil {
			return nil, err
		}
		return &plan.IsNull{X: x, Neg: e.Not}, nil

	case *ast.IsDistinct:
		l, err := eb.bind(e.L)
		if err != nil {
			return nil, err
		}
		r, err := eb.bind(e.R)
		if err != nil {
			return nil, err
		}
		if _, err := sqltypes.CommonType(l.Type().Kind, r.Type().Kind); err != nil {
			return nil, fmt.Errorf("IS DISTINCT FROM: %v", err)
		}
		return &plan.IsDistinct{L: l, R: r, Neg: e.Not}, nil

	case *ast.Between:
		x, err := eb.bind(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := eb.bind(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := eb.bind(e.Hi)
		if err != nil {
			return nil, err
		}
		if x, lo, err = dateOperands(x, lo, e.X, e.Lo); err != nil {
			return nil, err
		}
		if x, hi, err = dateOperands(x, hi, e.X, e.Hi); err != nil {
			return nil, err
		}
		ge, err := eb.call(">=", []plan.Expr{x, lo})
		if err != nil {
			return nil, err
		}
		le, err := eb.call("<=", []plan.Expr{x, hi})
		if err != nil {
			return nil, err
		}
		var out plan.Expr = &plan.And{L: ge, R: le}
		if e.Not {
			out = &plan.Not{X: out}
		}
		return out, nil

	case *ast.InList:
		x, err := eb.bind(e.X)
		if err != nil {
			return nil, err
		}
		list := make([]plan.Expr, len(e.List))
		for i, item := range e.List {
			bi, err := eb.bind(item)
			if err != nil {
				return nil, err
			}
			if bi, err = asDate(bi, item, x); err != nil {
				return nil, err
			}
			if _, err := sqltypes.CommonType(x.Type().Kind, bi.Type().Kind); err != nil {
				return nil, fmt.Errorf("IN list item %d: %v", i+1, err)
			}
			list[i] = bi
		}
		return &plan.InList{X: x, List: list, Neg: e.Not}, nil

	case *ast.InSubquery:
		x, err := eb.bind(e.X)
		if err != nil {
			return nil, err
		}
		sub, err := eb.b.bindQuery(e.Query, eb.scope)
		if err != nil {
			return nil, err
		}
		if len(sub.Schema().Cols) != 1 {
			return nil, fmt.Errorf("IN subquery must return exactly one column")
		}
		return &plan.Subquery{
			Plan:  sub,
			Mode:  plan.SubIn,
			Neg:   e.Not,
			Exprs: []plan.Expr{x},
			Typ:   sqltypes.Type{Kind: sqltypes.KindBool},
			Memo:  true,
		}, nil

	case *ast.Exists:
		sub, err := eb.b.bindQuery(e.Query, eb.scope)
		if err != nil {
			return nil, err
		}
		return &plan.Subquery{
			Plan: sub,
			Mode: plan.SubExists,
			Neg:  e.Not,
			Typ:  sqltypes.Type{Kind: sqltypes.KindBool},
			Memo: true,
		}, nil

	case *ast.ScalarSubquery:
		sub, err := eb.b.bindQuery(e.Query, eb.scope)
		if err != nil {
			return nil, err
		}
		if len(sub.Schema().Cols) != 1 {
			return nil, fmt.Errorf("scalar subquery must return exactly one column")
		}
		return &plan.Subquery{
			Plan: sub,
			Mode: plan.SubScalar,
			Typ:  sub.Schema().Cols[0].Typ.Scalar(),
			Memo: true,
		}, nil

	case *ast.Case:
		return eb.bindCase(e)

	case *ast.Cast:
		x, err := eb.bind(e.X)
		if err != nil {
			return nil, err
		}
		kind := sqltypes.KindFromName(e.TypeName)
		if kind == sqltypes.KindUnknown {
			return nil, fmt.Errorf("unknown type %s in CAST", e.TypeName)
		}
		return &plan.Cast{X: x, Kind: kind}, nil

	case *ast.FuncCall:
		return eb.bindFuncCall(e)

	case *ast.At:
		return eb.bindAt(e)

	case *ast.Current:
		// CURRENT dim: the single value the dimension is constrained to in
		// the enclosing evaluation context, else NULL (paper §3.5).
		if eb.currentCtx == nil {
			return nil, fmt.Errorf("CURRENT is only valid inside AT modifier expressions")
		}
		id, ok := e.Dim.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("CURRENT requires a dimension name")
		}
		if v := eb.currentCtx.CurrentValue(id.Name()); v != nil {
			return v, nil
		}
		return &plan.Lit{Val: sqltypes.Null(sqltypes.KindUnknown)}, nil

	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

func (eb *exprBinder) bindIdent(e *ast.Ident) (plan.Expr, error) {
	if len(e.Parts) > 2 {
		return nil, fmt.Errorf("identifier %s has too many qualifiers", strings.Join(e.Parts, "."))
	}
	res, err := eb.scope.resolve(e.Qualifier(), e.Name())
	if err != nil {
		return nil, err
	}
	if res.col.Measure != nil {
		if !eb.allowMeasures {
			return nil, fmt.Errorf("measure %s cannot be used here", res.col.Name)
		}
		if eb.inAgg {
			return nil, fmt.Errorf("measure %s cannot be an argument of an aggregate function; use AGGREGATE(%s)", res.col.Name, res.col.Name)
		}
		if res.levels > 0 {
			return nil, fmt.Errorf("correlated references to measure %s are not supported", res.col.Name)
		}
		return &measurePH{info: res.col.Measure, rel: res.rel, id: e, bare: true}, nil
	}
	if res.col.Typ.Measure {
		return nil, fmt.Errorf("column %s has measure type but lost its definition (e.g. through a set operation) and cannot be used", res.col.Name)
	}
	return res.expr, nil
}

func (eb *exprBinder) bindBinary(e *ast.Binary) (plan.Expr, error) {
	switch e.Op {
	case "AND", "OR":
		l, err := eb.bind(e.L)
		if err != nil {
			return nil, err
		}
		r, err := eb.bind(e.R)
		if err != nil {
			return nil, err
		}
		if err := requireBool(l, e.Op+" operand"); err != nil {
			return nil, err
		}
		if err := requireBool(r, e.Op+" operand"); err != nil {
			return nil, err
		}
		if e.Op == "AND" {
			return &plan.And{L: l, R: r}, nil
		}
		return &plan.Or{L: l, R: r}, nil
	default:
		l, err := eb.bind(e.L)
		if err != nil {
			return nil, err
		}
		r, err := eb.bind(e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			if l, r, err = dateOperands(l, r, e.L, e.R); err != nil {
				return nil, err
			}
		}
		return eb.call(e.Op, []plan.Expr{l, r})
	}
}

// dateOperands binds a string literal compared with a DATE operand, on
// either side, as the DATE it spells, as SQL reads '2024-01-01' next to
// a date; ls and rs are the operands' source. A string that spells no
// date is a bind error that names it.
func dateOperands(l, r plan.Expr, ls, rs ast.Expr) (plan.Expr, plan.Expr, error) {
	l, err := asDate(l, ls, r)
	if err != nil {
		return nil, nil, err
	}
	r, err = asDate(r, rs, l)
	return l, r, err
}

// asDate is x, bound from src, as a DATE when src is a string literal
// and other a DATE operand.
func asDate(x plan.Expr, src ast.Expr, other plan.Expr) (plan.Expr, error) {
	s, ok := src.(*ast.StringLit)
	if !ok || other.Type().Kind != sqltypes.KindDate {
		return x, nil
	}
	v, err := sqltypes.ParseDate(s.Val)
	if err != nil {
		return nil, err
	}
	return &plan.Lit{Val: v}, nil
}

// call builds a plan.Call for a registered scalar function, computing the
// result type. Measure-typed arguments are rejected here, which catches
// things like profitMargin + 1 outside an evaluable context.
func (eb *exprBinder) call(name string, args []plan.Expr) (plan.Expr, error) {
	return eb.callAt(name, args, 0)
}

// callAt is call with a source position (byte offset + 1, 0 unknown)
// carried into the plan for runtime error reporting.
func (eb *exprBinder) callAt(name string, args []plan.Expr, pos int) (plan.Expr, error) {
	sc, ok := fn.LookupScalar(name)
	if !ok {
		return nil, fmt.Errorf("unknown function or operator %s", name)
	}
	if len(args) < sc.MinArgs || (sc.MaxArgs >= 0 && len(args) > sc.MaxArgs) {
		return nil, fmt.Errorf("%s: wrong number of arguments (%d)", name, len(args))
	}
	types := make([]sqltypes.Type, len(args))
	for i, a := range args {
		types[i] = a.Type()
	}
	ret, err := sc.Ret(types)
	if err != nil {
		return nil, err
	}
	return &plan.Call{Name: sc.Name, Args: args, Typ: ret, Pos: pos}, nil
}

func (eb *exprBinder) bindCase(e *ast.Case) (plan.Expr, error) {
	// Desugar simple CASE (CASE x WHEN v ...) into searched CASE.
	whens := make([]plan.CaseWhen, 0, len(e.Whens))
	var operand plan.Expr
	var err error
	if e.Operand != nil {
		operand, err = eb.bind(e.Operand)
		if err != nil {
			return nil, err
		}
	}
	resultKind := sqltypes.KindUnknown
	for _, w := range e.Whens {
		var cond plan.Expr
		if operand != nil {
			val, err := eb.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			cond, err = eb.call("=", []plan.Expr{operand, val})
			if err != nil {
				return nil, err
			}
		} else {
			cond, err = eb.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			if err := requireBool(cond, "CASE WHEN condition"); err != nil {
				return nil, err
			}
		}
		then, err := eb.bind(w.Then)
		if err != nil {
			return nil, err
		}
		resultKind, err = sqltypes.CommonType(resultKind, then.Type().Kind)
		if err != nil {
			return nil, fmt.Errorf("CASE branches: %v", err)
		}
		whens = append(whens, plan.CaseWhen{Cond: cond, Then: then})
	}
	var elseExpr plan.Expr
	if e.Else != nil {
		elseExpr, err = eb.bind(e.Else)
		if err != nil {
			return nil, err
		}
		resultKind, err = sqltypes.CommonType(resultKind, elseExpr.Type().Kind)
		if err != nil {
			return nil, fmt.Errorf("CASE branches: %v", err)
		}
	}
	return &plan.Case{Whens: whens, Else: elseExpr, Typ: sqltypes.Type{Kind: resultKind}}, nil
}

func (eb *exprBinder) bindFuncCall(e *ast.FuncCall) (plan.Expr, error) {
	name := strings.ToUpper(e.Name)

	// AGGREGATE(m) ≡ EVAL(m AT (VISIBLE)) — paper §3.5.
	if name == "AGGREGATE" || name == "EVAL" {
		if len(e.Args) != 1 || e.Star || e.Distinct || e.Over != nil || e.Filter != nil {
			return nil, fmt.Errorf("%s takes exactly one measure argument", name)
		}
		inner, err := eb.bind(e.Args[0])
		if err != nil {
			return nil, err
		}
		ph, ok := inner.(*measurePH)
		if !ok {
			return nil, fmt.Errorf("%s requires a measure argument, got type %s", name, inner.Type())
		}
		ph.bare = false
		if name == "AGGREGATE" {
			if len(ph.mods) > 0 {
				return nil, fmt.Errorf("AGGREGATE takes a plain measure; combine AT with EVAL instead")
			}
			ph.mods = []ast.AtMod{&ast.AtVisible{}}
		}
		return ph, nil
	}

	// Window functions: OVER present, or window-only function names.
	if e.Over != nil || fn.IsWindowOnly(name) {
		return eb.bindWindowCall(e, name)
	}

	if agg, ok := fn.LookupAgg(name); ok {
		return eb.bindAggCall(e, agg)
	}

	if name == "GROUPING" {
		return eb.bindGrouping(e)
	}
	if name == "GROUPING_ID" {
		// GROUPING_ID(e1..en) desugars to the bit vector
		// GROUPING(e1)*2^(n-1) + ... + GROUPING(en), used by §5.3-style
		// measures that pick a formula per aggregation level.
		if !eb.allowAgg {
			return nil, fmt.Errorf("GROUPING_ID is only valid in an aggregate query")
		}
		if len(e.Args) == 0 {
			return nil, fmt.Errorf("GROUPING_ID requires at least one argument")
		}
		var out plan.Expr
		for i, arg := range e.Args {
			g, err := eb.bindGrouping(&ast.FuncCall{Name: "GROUPING", Args: []ast.Expr{arg}})
			if err != nil {
				return nil, err
			}
			weight := int64(1) << (len(e.Args) - 1 - i)
			term := plan.Expr(&plan.Call{
				Name: "*",
				Args: []plan.Expr{g, &plan.Lit{Val: sqltypes.NewInt(weight)}},
				Typ:  sqltypes.Type{Kind: sqltypes.KindInt},
			})
			if out == nil {
				out = term
			} else {
				out = &plan.Call{Name: "+", Args: []plan.Expr{out, term}, Typ: sqltypes.Type{Kind: sqltypes.KindInt}}
			}
		}
		return out, nil
	}

	if e.Star || e.Distinct {
		return nil, fmt.Errorf("%s is not an aggregate function", name)
	}
	args := make([]plan.Expr, len(e.Args))
	for i, a := range e.Args {
		bound, err := eb.bind(a)
		if err != nil {
			return nil, err
		}
		args[i] = bound
	}
	if e.Filter != nil {
		return nil, fmt.Errorf("FILTER is only valid on aggregate functions")
	}
	return eb.callAt(name, args, e.Pos+1)
}

func (eb *exprBinder) bindAggCall(e *ast.FuncCall, agg *fn.Agg) (plan.Expr, error) {
	if !eb.allowAgg {
		return nil, fmt.Errorf("aggregate function %s is not allowed here", agg.Name)
	}
	if eb.inAgg {
		return nil, fmt.Errorf("aggregate functions cannot be nested")
	}
	if err := fn.CheckAggArity(agg, len(e.Args), e.Star); err != nil {
		return nil, err
	}
	inner := *eb
	inner.inAgg = true
	inner.allowWindow = false
	args := make([]plan.Expr, len(e.Args))
	types := make([]sqltypes.Type, len(e.Args))
	for i, a := range e.Args {
		bound, err := inner.bind(a)
		if err != nil {
			return nil, err
		}
		args[i] = bound
		types[i] = bound.Type()
	}
	var filter plan.Expr
	if e.Filter != nil {
		f, err := inner.bind(e.Filter)
		if err != nil {
			return nil, err
		}
		if err := requireBool(f, "FILTER condition"); err != nil {
			return nil, err
		}
		filter = f
	}
	var within []plan.Expr
	if len(e.WithinDistinct) > 0 {
		if e.Distinct {
			return nil, fmt.Errorf("%s: DISTINCT and WITHIN DISTINCT cannot be combined", agg.Name)
		}
		for _, k := range e.WithinDistinct {
			bk, err := inner.bind(k)
			if err != nil {
				return nil, err
			}
			within = append(within, bk)
		}
	}
	ret, err := agg.Ret(types)
	if err != nil {
		return nil, err
	}
	return &aggPH{call: plan.AggCall{
		Name:           agg.Name,
		Args:           args,
		Star:           e.Star,
		Distinct:       e.Distinct,
		Filter:         filter,
		WithinDistinct: within,
		KeyIndex:       -1,
		Typ:            ret,
	}}, nil
}

func (eb *exprBinder) bindGrouping(e *ast.FuncCall) (plan.Expr, error) {
	if !eb.allowAgg {
		return nil, fmt.Errorf("GROUPING is only valid in an aggregate query")
	}
	if len(e.Args) != 1 {
		return nil, fmt.Errorf("GROUPING takes exactly one argument")
	}
	arg, err := eb.bind(e.Args[0])
	if err != nil {
		return nil, err
	}
	// KeyIndex is resolved by the aggregate rewrite, which matches Args[0]
	// against the group expressions.
	return &aggPH{call: plan.AggCall{
		Name:     "GROUPING",
		Args:     []plan.Expr{arg},
		KeyIndex: -1,
		Typ:      sqltypes.Type{Kind: sqltypes.KindInt},
	}}, nil
}

func (eb *exprBinder) bindWindowCall(e *ast.FuncCall, name string) (plan.Expr, error) {
	if !eb.allowWindow {
		return nil, fmt.Errorf("window function %s is only allowed in the SELECT list", name)
	}
	if e.Over == nil {
		return nil, fmt.Errorf("%s requires an OVER clause", name)
	}
	if e.Distinct {
		return nil, fmt.Errorf("DISTINCT is not supported in window functions")
	}
	inner := *eb
	inner.allowWindow = false
	inner.allowAgg = false
	args := make([]plan.Expr, len(e.Args))
	types := make([]sqltypes.Type, len(e.Args))
	for i, a := range e.Args {
		bound, err := inner.bind(a)
		if err != nil {
			return nil, err
		}
		args[i] = bound
		types[i] = bound.Type()
	}
	var ret sqltypes.Type
	if fn.IsWindowOnly(name) {
		r, err := fn.WindowRet(name, types)
		if err != nil {
			return nil, err
		}
		ret = r
	} else if agg, ok := fn.LookupAgg(name); ok {
		if err := fn.CheckAggArity(agg, len(e.Args), e.Star); err != nil {
			return nil, err
		}
		r, err := agg.Ret(types)
		if err != nil {
			return nil, err
		}
		ret = r
	} else {
		return nil, fmt.Errorf("%s is not a window or aggregate function", name)
	}

	wf := plan.WindowFunc{Name: name, Args: args, Star: e.Star, Typ: ret}
	for _, pb := range e.Over.PartitionBy {
		bound, err := inner.bind(pb)
		if err != nil {
			return nil, err
		}
		wf.PartitionBy = append(wf.PartitionBy, bound)
	}
	for _, ob := range e.Over.OrderBy {
		bound, err := inner.bind(ob.Expr)
		if err != nil {
			return nil, err
		}
		wf.OrderBy = append(wf.OrderBy, plan.SortItem{Expr: bound, Desc: ob.Desc, NullsFirst: nullsFirst(ob)})
	}
	// Frames: the default running frame applies when ORDER BY is present;
	// explicit frames other than the two defaults are not supported.
	if e.Over.Frame != nil {
		f := e.Over.Frame
		switch {
		case f.Start.Kind == ast.UnboundedPreceding && f.End.Kind == ast.CurrentRow:
			wf.Running = len(wf.OrderBy) > 0
		case f.Start.Kind == ast.UnboundedPreceding && f.End.Kind == ast.UnboundedFollowing:
			wf.Running = false
		default:
			return nil, fmt.Errorf("only UNBOUNDED PRECEDING frames are supported")
		}
	} else {
		wf.Running = len(wf.OrderBy) > 0
	}
	return &windowPH{fn: wf}, nil
}

// bindAt collects the AT modifier chain onto the measure placeholder.
// Nested applications compose per the paper's rule cse AT (m1 m2) ≡
// (cse AT (m2)) AT (m1): outer modifiers apply first, and within one AT
// the modifiers apply left to right.
func (eb *exprBinder) bindAt(e *ast.At) (plan.Expr, error) {
	inner, err := eb.bind(e.X)
	if err != nil {
		return nil, err
	}
	ph, ok := inner.(*measurePH)
	if !ok {
		return nil, fmt.Errorf("AT can only be applied to a measure (a context-sensitive expression), got type %s", inner.Type())
	}
	ph.bare = false
	ph.mods = append(append([]ast.AtMod{}, e.Mods...), ph.mods...)
	return ph, nil
}

// findMeasurePH reports whether a bound expression still contains measure
// placeholders.
func findMeasurePH(e plan.Expr) *measurePH {
	var found *measurePH
	plan.WalkExprs(e, func(x plan.Expr) {
		if ph, ok := x.(*measurePH); ok && found == nil {
			found = ph
		}
	})
	return found
}
