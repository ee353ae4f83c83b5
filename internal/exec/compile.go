package exec

// Expression evaluation: compile once, call per row. A plan.Expr is
// compiled into a closure tree the first time the operator that owns it
// reaches its row loop; every row then costs one indirect call per node
// instead of a type switch, a function-registry lookup and a deferred
// pop. Three rules keep a compiled tree shareable — across the worker
// goroutines of one execution and, through the Pipeline of a cached plan,
// across executions:
//
//   - closures are stateless: scratch lives on the runtime they are handed
//     (rt.args), never in the closure;
//   - nothing an execution binds is captured: parameters are read from
//     rt.sh.settings.Params and outer rows from rt.outer at call time;
//   - declared types are advisory: a specialisation guards on the runtime
//     Value.K of its operands and otherwise takes the generic route, so
//     results and errors are those of the tree-walking interpreter
//     (interp_test.go) bit for bit.

import (
	"fmt"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// evalFn is a compiled expression.
type evalFn func(rt *runtime, row Row) (sqltypes.Value, error)

// predFn is a compiled expression of which only the truth is consumed
// (Filter, aggregate FILTER, join residual, CASE WHEN): no Value is boxed
// between the comparison and the connective that reads it.
type predFn func(rt *runtime, row Row) (tri, error)

// tri is three-valued truth. triOther stands for a non-NULL value that is
// not a BOOLEAN: sqltypes.And reads it as "not false", sqltypes.Or as
// "not true" and Value.IsTrue as false, and the predicate form must too.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
	triOther
)

func triOf(v sqltypes.Value) tri {
	switch {
	case v.Null:
		return triNull
	case v.K != sqltypes.KindBool:
		return triOther
	case v.B:
		return triTrue
	}
	return triFalse
}

func triBool(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// value boxes t; nullKind is the kind of the NULL the value form yields.
func (t tri) value(nullKind sqltypes.Kind) sqltypes.Value {
	if t == triNull {
		return sqltypes.Null(nullKind)
	}
	return sqltypes.NewBool(t == triTrue)
}

// operand is one input of a compiled node. Columns, correlated columns,
// literals and parameters are read in place; anything else is a compiled
// subtree.
type operand struct {
	kind   operandKind
	idx    int
	levels int
	val    sqltypes.Value
	fn     evalFn
}

type operandKind uint8

const (
	opExpr operandKind = iota
	opCol
	opCorr
	opLit
	opParam
)

func operandOf(e plan.Expr) operand {
	switch e := e.(type) {
	case *plan.ColRef:
		return operand{kind: opCol, idx: e.Index}
	case *plan.CorrRef:
		return operand{kind: opCorr, idx: e.Index, levels: e.Levels}
	case *plan.Lit:
		return operand{kind: opLit, val: e.Val}
	case *plan.Param:
		return operand{kind: opParam, idx: e.Index}
	}
	return operand{kind: opExpr, fn: compileExpr(e)}
}

func operandsOf(exprs []plan.Expr) []operand {
	ops := make([]operand, len(exprs))
	for i, e := range exprs {
		ops[i] = operandOf(e)
	}
	return ops
}

// ref returns a leaf operand's value in place, or nil when the operand is
// a subtree or does not resolve (load then words the error). The column
// case is kept small enough to inline.
func (o *operand) ref(rt *runtime, row Row) *sqltypes.Value {
	if o.kind == opCol && uint(o.idx) < uint(len(row)) {
		return &row[o.idx]
	}
	return o.refOther(rt)
}

//go:noinline
func (o *operand) refOther(rt *runtime) *sqltypes.Value {
	switch o.kind {
	case opLit:
		return &o.val
	case opCorr:
		if n := len(rt.outer); uint(o.levels-1) < uint(n) {
			if outer := rt.outer[n-o.levels]; uint(o.idx) < uint(len(outer)) {
				return &outer[o.idx]
			}
		}
	case opParam:
		if ps := rt.sh.settings.Params; uint(o.idx) < uint(len(ps)) {
			return &ps[o.idx]
		}
	}
	return nil
}

func colRangeError(idx, width int) error {
	return fmt.Errorf("column index %d out of range (row width %d)", idx, width)
}

func (o *operand) load(rt *runtime, row Row) (sqltypes.Value, error) {
	switch o.kind {
	case opCol:
		if uint(o.idx) >= uint(len(row)) {
			return sqltypes.Value{}, colRangeError(o.idx, len(row))
		}
		return row[o.idx], nil
	case opCorr:
		outer, err := rt.outerAt(o.levels)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if uint(o.idx) >= uint(len(outer)) {
			return sqltypes.Value{}, fmt.Errorf("correlated column index %d out of range", o.idx)
		}
		return outer[o.idx], nil
	case opLit:
		return o.val, nil
	case opParam:
		ps := rt.sh.settings.Params
		if uint(o.idx) >= uint(len(ps)) {
			return sqltypes.Value{}, fmt.Errorf("parameter $%d not bound (%d provided)", o.idx+1, len(ps))
		}
		return ps[o.idx], nil
	}
	return o.fn(rt, row)
}

// compileExprs compiles each of exprs.
func compileExprs(exprs []plan.Expr) []evalFn {
	fns := make([]evalFn, len(exprs))
	for i, e := range exprs {
		fns[i] = compileExpr(e)
	}
	return fns
}

// compileExpr compiles e in value form.
func compileExpr(e plan.Expr) evalFn {
	switch e := e.(type) {
	case *plan.ColRef:
		// The commonest leaf (group keys, aggregate arguments) gets a
		// closure of its own in place of operand.load's switch.
		idx := e.Index
		return func(_ *runtime, row Row) (sqltypes.Value, error) {
			if uint(idx) >= uint(len(row)) {
				return sqltypes.Value{}, colRangeError(idx, len(row))
			}
			return row[idx], nil
		}

	case *plan.Lit:
		val := e.Val
		return func(*runtime, Row) (sqltypes.Value, error) { return val, nil }

	case *plan.CorrRef, *plan.Param:
		o := operandOf(e)
		return o.load

	case *plan.Call:
		if cmp, ok := compileComparison(e); ok {
			nullKind := e.Typ.Kind
			return func(rt *runtime, row Row) (sqltypes.Value, error) {
				t, err := cmp(rt, row)
				if err != nil {
					return sqltypes.Value{}, err
				}
				return t.value(nullKind), nil
			}
		}
		return compileCall(e)

	case *plan.And:
		l, r := compileExpr(e.L), compileExpr(e.R)
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			a, err := l(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if a.IsFalse() {
				return a, nil
			}
			b, err := r(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.And(a, b), nil
		}

	case *plan.Or:
		l, r := compileExpr(e.L), compileExpr(e.R)
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			a, err := l(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if a.IsTrue() {
				return a, nil
			}
			b, err := r(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.Or(a, b), nil
		}

	case *plan.Not:
		x := compileExpr(e.X)
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			v, err := x(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.Not(v), nil
		}

	case *plan.IsNull, *plan.IsDistinct:
		// Never NULL, so the predicate form loses nothing.
		p := compilePred(e)
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			t, err := p(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool(t == triTrue), nil
		}

	case *plan.InList:
		return compileInList(e)

	case *plan.Case:
		conds := make([]predFn, len(e.Whens))
		thens := make([]evalFn, len(e.Whens))
		for i, w := range e.Whens {
			conds[i], thens[i] = compilePred(w.Cond), compileExpr(w.Then)
		}
		var els evalFn
		if e.Else != nil {
			els = compileExpr(e.Else)
		}
		nullKind := e.Typ.Kind
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			for i, cond := range conds {
				t, err := cond(rt, row)
				if err != nil {
					return sqltypes.Value{}, err
				}
				if t == triTrue {
					return thens[i](rt, row)
				}
			}
			if els != nil {
				return els(rt, row)
			}
			return sqltypes.Null(nullKind), nil
		}

	case *plan.Cast:
		x, kind := operandOf(e.X), e.Kind
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			v, err := x.load(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.Cast(v, kind)
		}

	case *plan.Subquery:
		left := operandsOf(e.Exprs)
		return func(rt *runtime, row Row) (sqltypes.Value, error) {
			return rt.evalSubquery(e, left, row)
		}

	case *plan.AggRef:
		return func(*runtime, Row) (sqltypes.Value, error) {
			return sqltypes.Value{}, fmt.Errorf("internal error: unresolved aggregate reference at runtime")
		}

	default:
		return func(*runtime, Row) (sqltypes.Value, error) {
			return sqltypes.Value{}, fmt.Errorf("internal error: cannot evaluate %T", e)
		}
	}
}

// compilePred compiles e in predicate form. Connectives, comparisons and
// the two NULL tests work on tri throughout; any other expression is
// evaluated in value form and read with triOf.
func compilePred(e plan.Expr) predFn {
	switch e := e.(type) {
	case *plan.And:
		l, r := compilePred(e.L), compilePred(e.R)
		return func(rt *runtime, row Row) (tri, error) {
			a, err := l(rt, row)
			if err != nil || a == triFalse {
				return triFalse, err
			}
			b, err := r(rt, row)
			switch {
			case err != nil || b == triFalse:
				return triFalse, err
			case a == triNull || b == triNull:
				return triNull, nil
			}
			return triTrue, nil
		}

	case *plan.Or:
		l, r := compilePred(e.L), compilePred(e.R)
		return func(rt *runtime, row Row) (tri, error) {
			a, err := l(rt, row)
			if err != nil || a == triTrue {
				return a, err
			}
			b, err := r(rt, row)
			switch {
			case err != nil || b == triTrue:
				return b, err
			case a == triNull || b == triNull:
				return triNull, nil
			}
			return triFalse, nil
		}

	case *plan.Not:
		x := compilePred(e.X)
		return func(rt *runtime, row Row) (tri, error) {
			t, err := x(rt, row)
			switch {
			case err != nil || t == triNull:
				return t, err
			case t == triTrue:
				return triFalse, nil
			}
			// sqltypes.Not negates Value.B, which is unset in anything
			// but a TRUE.
			return triTrue, nil
		}

	case *plan.IsNull:
		x, neg := operandOf(e.X), e.Neg
		return func(rt *runtime, row Row) (tri, error) {
			v, err := x.load(rt, row)
			if err != nil {
				return triFalse, err
			}
			return triBool(v.Null != neg), nil
		}

	case *plan.IsDistinct:
		d := &distinctness{l: operandOf(e.L), r: operandOf(e.R), neg: e.Neg}
		if d.l.kind == opExpr || d.r.kind == opExpr {
			return d.eval
		}
		return d.evalInPlace

	case *plan.Call:
		if cmp, ok := compileComparison(e); ok {
			return cmp
		}
	}
	v := compileExpr(e)
	return func(rt *runtime, row Row) (tri, error) {
		x, err := v(rt, row)
		if err != nil {
			return triFalse, err
		}
		return triOf(x), nil
	}
}

// distinctness is a compiled IS [NOT] DISTINCT FROM.
type distinctness struct {
	l, r operand
	neg  bool
}

func (d *distinctness) eval(rt *runtime, row Row) (tri, error) {
	a, err := d.l.load(rt, row)
	if err != nil {
		return triFalse, err
	}
	b, err := d.r.load(rt, row)
	if err != nil {
		return triFalse, err
	}
	return triBool(isNotDistinct(&a, &b) == d.neg), nil
}

// evalInPlace is eval for two leaf operands: no Value is copied.
func (d *distinctness) evalInPlace(rt *runtime, row Row) (tri, error) {
	a, b := d.l.ref(rt, row), d.r.ref(rt, row)
	if a == nil || b == nil {
		return d.eval(rt, row)
	}
	return triBool(isNotDistinct(a, b) == d.neg), nil
}

// isNotDistinct is sqltypes.NotDistinct with same-kind operands compared in
// place.
func isNotDistinct(a, b *sqltypes.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if c, ok := compareSameKind(a, b); ok {
		return c == 0
	}
	return sqltypes.NotDistinct(*a, *b)
}

// compareSameKind orders two non-NULL values of one kind among INTEGER,
// DATE, DOUBLE and VARCHAR exactly as sqltypes.Compare does; ok is false
// for any other pairing, which the caller hands to sqltypes.
func compareSameKind(a, b *sqltypes.Value) (c int, ok bool) {
	if a.K != b.K {
		return 0, false
	}
	switch a.K {
	case sqltypes.KindInt, sqltypes.KindDate:
		return cmp3(a.I, b.I), true
	case sqltypes.KindFloat:
		return cmp3(a.F(), b.F()), true
	case sqltypes.KindString:
		return cmp3(a.S, b.S), true
	}
	return 0, false
}

func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpTruth maps a comparison operator to its truth by three-way result,
// indexed by c+1.
var cmpTruth = map[string][3]bool{
	"=":  {false, true, false},
	"<>": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

// comparison is one of the six comparison operators, compiled in
// predicate form: operands of one fast kind are compared in place, every
// other pairing (mixed numerics, BOOLEAN, incomparable kinds and their
// error) goes through the registered function.
type comparison struct {
	e     *plan.Call
	sc    *fn.Scalar
	l, r  operand
	truth [3]bool
}

func compileComparison(e *plan.Call) (predFn, bool) {
	truth, ok := cmpTruth[e.Name]
	sc, found := fn.LookupScalar(e.Name)
	if !ok || !found || !sc.Strict || len(e.Args) != 2 {
		return nil, false
	}
	c := &comparison{e: e, sc: sc, l: operandOf(e.Args[0]), r: operandOf(e.Args[1]), truth: truth}
	if c.l.kind == opExpr || c.r.kind == opExpr {
		return c.eval, true
	}
	return c.evalInPlace, true
}

func (c *comparison) eval(rt *runtime, row Row) (tri, error) {
	a, err := c.l.load(rt, row)
	if err != nil {
		return triFalse, err
	}
	b, err := c.r.load(rt, row)
	if err != nil {
		return triFalse, err
	}
	if a.Null || b.Null {
		return triNull, nil
	}
	if o, ok := compareSameKind(&a, &b); ok {
		return triBool(c.truth[o+1]), nil
	}
	v, err := rt.call2(c.e, c.sc, a, b)
	return triOf(v), err
}

// evalInPlace is eval for two leaf operands: no Value is copied unless
// the kinds differ.
func (c *comparison) evalInPlace(rt *runtime, row Row) (tri, error) {
	a, b := c.l.ref(rt, row), c.r.ref(rt, row)
	if a != nil && b != nil {
		if a.Null || b.Null {
			return triNull, nil
		}
		if o, ok := compareSameKind(a, b); ok {
			return triBool(c.truth[o+1]), nil
		}
	}
	return c.eval(rt, row)
}

// apply calls sc on the arguments above base of the runtime's argument
// stack and pops them. Arguments go there because a local array would
// escape through the indirect call and cost an allocation per row.
func (rt *runtime) apply(e *plan.Call, sc *fn.Scalar, base int) (sqltypes.Value, error) {
	out, err := sc.Eval(rt.args[base:])
	rt.args = rt.args[:base]
	if err != nil {
		return sqltypes.Value{}, callError(e.Name, e.Pos, err)
	}
	return out, nil
}

// call2 applies a binary scalar to two evaluated arguments, neither NULL.
func (rt *runtime) call2(e *plan.Call, sc *fn.Scalar, a, b sqltypes.Value) (sqltypes.Value, error) {
	base := len(rt.args)
	rt.args = append(rt.args, a, b)
	return rt.apply(e, sc, base)
}

// callError attaches the call site's source position (when the binder
// recorded one) so hostile-input failures — bad casts, integer overflow —
// point at the offending expression.
func callError(name string, pos int, err error) error {
	if pos > 0 {
		pos--
	} else {
		pos = -1
	}
	return &Error{
		Code: CodeRuntime, Phase: PhaseExecute, Pos: pos,
		Err: fmt.Errorf("in %s: %w", name, err),
	}
}

// compileCall compiles a scalar call. The function is resolved here, once;
// an unknown name fails when (and only if) the call is evaluated.
func compileCall(e *plan.Call) evalFn {
	sc, ok := fn.LookupScalar(e.Name)
	if !ok {
		return func(*runtime, Row) (sqltypes.Value, error) {
			return sqltypes.Value{}, fmt.Errorf("unknown function %s at runtime", e.Name)
		}
	}
	if sc.Strict {
		switch {
		case len(e.Args) == 2 && (e.Name == "+" || e.Name == "-" || e.Name == "*" || e.Name == "/"):
			return compileArith(e, sc)
		case len(e.Args) == 1 && e.Name == "YEAR":
			return compileYear(e, sc)
		}
	}
	args, strict, nullKind := operandsOf(e.Args), sc.Strict, e.Typ.Kind
	return func(rt *runtime, row Row) (sqltypes.Value, error) {
		// Arguments live on the runtime's argument stack above base; a
		// nested call pushes above them and pops back before returning, so
		// this call's slots stay put (the backing array may move, hence the
		// re-slice). Strictness is decided once every argument has been
		// evaluated.
		base := len(rt.args)
		anyNull := false
		for i := range args {
			v, err := args[i].load(rt, row)
			if err != nil {
				rt.args = rt.args[:base]
				return sqltypes.Value{}, err
			}
			rt.args = append(rt.args, v)
			anyNull = anyNull || v.Null
		}
		if strict && anyNull {
			rt.args = rt.args[:base]
			return sqltypes.Null(nullKind), nil
		}
		return rt.apply(e, sc, base)
	}
}

// compileArith compiles + - * / with INTEGER and DOUBLE operands computed
// in place. Overflow, dates and every other kind go through the registered
// function, which also words the error.
func compileArith(e *plan.Call, sc *fn.Scalar) evalFn {
	l, r := operandOf(e.Args[0]), operandOf(e.Args[1])
	op, nullKind := e.Name[0], e.Typ.Kind
	return func(rt *runtime, row Row) (sqltypes.Value, error) {
		a, err := l.load(rt, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		b, err := r.load(rt, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if a.Null || b.Null {
			return sqltypes.Null(nullKind), nil
		}
		if v, ok := arithFast(op, &a, &b); ok {
			return v, nil
		}
		return rt.call2(e, sc, a, b)
	}
}

func arithFast(op byte, a, b *sqltypes.Value) (sqltypes.Value, bool) {
	if !a.K.Numeric() || !b.K.Numeric() {
		return sqltypes.Value{}, false
	}
	if op == '/' {
		den := b.AsFloat()
		if den == 0 {
			return sqltypes.Null(sqltypes.KindFloat), true
		}
		return sqltypes.NewFloat(a.AsFloat() / den), true
	}
	if a.K == sqltypes.KindInt && b.K == sqltypes.KindInt {
		var s int64
		var ok bool
		switch op {
		case '+':
			s, ok = sqltypes.AddInt64(a.I, b.I)
		case '-':
			s, ok = sqltypes.SubInt64(a.I, b.I)
		default:
			s, ok = sqltypes.MulInt64(a.I, b.I)
		}
		return sqltypes.NewInt(s), ok
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return sqltypes.NewFloat(x + y), true
	case '-':
		return sqltypes.NewFloat(x - y), true
	}
	return sqltypes.NewFloat(x * y), true
}

// compileYear compiles YEAR(x) with a DATE argument read in place.
func compileYear(e *plan.Call, sc *fn.Scalar) evalFn {
	x, nullKind := operandOf(e.Args[0]), e.Typ.Kind
	return func(rt *runtime, row Row) (sqltypes.Value, error) {
		v, err := x.load(rt, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if v.Null {
			return sqltypes.Null(nullKind), nil
		}
		if v.K == sqltypes.KindDate {
			return sqltypes.NewInt(v.Year()), nil
		}
		base := len(rt.args)
		rt.args = append(rt.args, v)
		return rt.apply(e, sc, base)
	}
}

// compileInList compiles x [NOT] IN (…): the comparison loop over the
// items, each read in place, with the NULL rules of SQL's IN (a NULL on
// either side of a comparison leaves the answer unknown unless a later
// item matches).
func compileInList(e *plan.InList) evalFn {
	x, items, neg := operandOf(e.X), operandsOf(e.List), e.Neg
	return func(rt *runtime, row Row) (sqltypes.Value, error) {
		x, err := x.load(rt, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		sawNull := x.Null
		for i := range items {
			v, err := items[i].load(rt, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.Null || x.Null {
				sawNull = true
				continue
			}
			c, err := sqltypes.Compare(x, v)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if c == 0 {
				return sqltypes.NewBool(!neg), nil
			}
		}
		if sawNull {
			return sqltypes.Null(sqltypes.KindBool), nil
		}
		return sqltypes.NewBool(neg), nil
	}
}
