package exec

import (
	"fmt"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// refEval evaluates e against row by walking the tree: the interpreter the
// compiled closures replaced, kept as the oracle of the differential tests.
func (rt *runtime) refEval(e plan.Expr, row Row) (sqltypes.Value, error) {
	switch e := e.(type) {
	case *plan.ColRef:
		if e.Index < 0 || e.Index >= len(row) {
			return sqltypes.Value{}, fmt.Errorf("column index %d out of range (row width %d)", e.Index, len(row))
		}
		return row[e.Index], nil

	case *plan.CorrRef:
		outer, err := rt.outerAt(e.Levels)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if e.Index < 0 || e.Index >= len(outer) {
			return sqltypes.Value{}, fmt.Errorf("correlated column index %d out of range", e.Index)
		}
		return outer[e.Index], nil

	case *plan.Lit:
		return e.Val, nil

	case *plan.Param:
		ps := rt.sh.settings.Params
		if e.Index < 0 || e.Index >= len(ps) {
			return sqltypes.Value{}, fmt.Errorf("parameter $%d not bound (%d provided)", e.Index+1, len(ps))
		}
		return ps[e.Index], nil

	case *plan.Call:
		return rt.refEvalCall(e, row)

	case *plan.And:
		l, err := rt.refEval(e.L, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if l.IsFalse() {
			return l, nil
		}
		r, err := rt.refEval(e.R, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.And(l, r), nil

	case *plan.Or:
		l, err := rt.refEval(e.L, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if l.IsTrue() {
			return l, nil
		}
		r, err := rt.refEval(e.R, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.Or(l, r), nil

	case *plan.Not:
		x, err := rt.refEval(e.X, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.Not(x), nil

	case *plan.IsNull:
		x, err := rt.refEval(e.X, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewBool(x.Null != e.Neg), nil

	case *plan.IsDistinct:
		l, err := rt.refEval(e.L, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		r, err := rt.refEval(e.R, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		same := sqltypes.NotDistinct(l, r)
		return sqltypes.NewBool(same == e.Neg), nil

	case *plan.InList:
		return rt.refEvalInList(e, row)

	case *plan.Case:
		for _, w := range e.Whens {
			c, err := rt.refEval(w.Cond, row)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if c.IsTrue() {
				return rt.refEval(w.Then, row)
			}
		}
		if e.Else != nil {
			return rt.refEval(e.Else, row)
		}
		return sqltypes.Null(e.Typ.Kind), nil

	case *plan.Cast:
		x, err := rt.refEval(e.X, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.Cast(x, e.Kind)

	case *plan.Subquery:
		// Subquery machinery is not part of the expression interpreter.
		return compileExpr(e)(rt, row)

	case *plan.AggRef:
		return sqltypes.Value{}, fmt.Errorf("internal error: unresolved aggregate reference at runtime")

	default:
		return sqltypes.Value{}, fmt.Errorf("internal error: cannot evaluate %T", e)
	}
}

func (rt *runtime) refEvalCall(e *plan.Call, row Row) (sqltypes.Value, error) {
	sc, ok := fn.LookupScalar(e.Name)
	if !ok {
		return sqltypes.Value{}, fmt.Errorf("unknown function %s at runtime", e.Name)
	}
	// Arguments live on the runtime's argument stack above base; a nested
	// call pushes above them and pops back before returning, so this
	// call's slots stay put (the backing array may move, hence the
	// re-slice after the loop).
	base := len(rt.args)
	defer func() { rt.args = rt.args[:base] }()
	anyNull := false
	for _, a := range e.Args {
		v, err := rt.refEval(a, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		rt.args = append(rt.args, v)
		if v.Null {
			anyNull = true
		}
	}
	if sc.Strict && anyNull {
		return sqltypes.Null(e.Typ.Kind), nil
	}
	out, err := sc.Eval(rt.args[base:])
	if err != nil {
		// Attach the call site's source position (when the binder
		// recorded one) so hostile-input failures — bad casts, integer
		// overflow — point at the offending expression.
		pos := -1
		if e.Pos > 0 {
			pos = e.Pos - 1
		}
		return sqltypes.Value{}, &Error{
			Code: CodeRuntime, Phase: PhaseExecute, Pos: pos,
			Err: fmt.Errorf("in %s: %w", e.Name, err),
		}
	}
	return out, nil
}

func (rt *runtime) refEvalInList(e *plan.InList, row Row) (sqltypes.Value, error) {
	x, err := rt.refEval(e.X, row)
	if err != nil {
		return sqltypes.Value{}, err
	}
	sawNull := x.Null
	matched := false
	for _, item := range e.List {
		v, err := rt.refEval(item, row)
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
			matched = true
			break
		}
	}
	switch {
	case matched:
		return sqltypes.NewBool(!e.Neg), nil
	case sawNull:
		return sqltypes.Null(sqltypes.KindBool), nil
	default:
		return sqltypes.NewBool(e.Neg), nil
	}
}
