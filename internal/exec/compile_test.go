package exec

// The compiled evaluator against the tree-walking interpreter it replaced
// (interp_test.go): identical Value bits and identical errors over every
// expression form, operand shape, kind and NULL; identical evaluation
// order; and compiled trees shared by workers and by executions.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/binder"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/qgen"
	"github.com/measures-sql/msql/internal/sqltypes"
)

func typeOf(k sqltypes.Kind) sqltypes.Type { return sqltypes.Type{Kind: k} }

// The differential row layout: two columns of each kind.
var diffKinds = []sqltypes.Kind{
	sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindFloat,
	sqltypes.KindString, sqltypes.KindString, sqltypes.KindDate, sqltypes.KindDate,
	sqltypes.KindBool, sqltypes.KindBool,
}

var (
	dateA = sqltypes.NewDate(2023, time.November, 28)
	dateB = sqltypes.NewDate(2024, time.January, 1)
)

// diffRows returns rows of the layout: plain values, boundary values, a
// NULL of the declared kind in every position, and values whose kind is
// not the declared one.
func diffRows() []Row {
	i, f, s, b := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.NewBool
	rows := []Row{
		{i(7), i(-3), f(2.5), f(7), s("abc"), s("abd"), dateA, dateB, b(true), b(false)},
		{i(0), i(7), f(0), f(math.Copysign(0, -1)), s(""), s("7"), dateB, dateB, b(false), b(false)},
		{i(math.MaxInt64), i(1), f(math.NaN()), f(1e300), s("abc"), s("abc"), dateA, dateA, b(true), b(true)},
		{i(math.MinInt64), i(-1), f(math.Inf(1)), f(-2.5), s("ABC"), s("a%"), dateB, dateA, b(false), b(true)},
		// The declared kind is advisory: every position holds something else.
		{s("x"), f(7), i(7), s("2.5"), i(7), b(true), i(19000), s("2023-11-28"), i(1), s("true")},
		{f(7.5), dateA, dateA, b(true), dateA, f(1), f(1), b(false), f(0), dateA},
	}
	nulls := make(Row, len(diffKinds))
	for c, k := range diffKinds {
		nulls[c] = sqltypes.Null(k)
	}
	rows = append(rows, nulls)
	for c := range diffKinds {
		r := append(Row{}, rows[0]...)
		r[c] = sqltypes.Null(diffKinds[c])
		rows = append(rows, r)
	}
	return rows
}

// diffRuntime returns a runtime with one outer frame and a parameter
// vector, both covering every kind and NULL.
func diffRuntime() *runtime {
	settings := DefaultSettings()
	settings.Params = []sqltypes.Value{
		sqltypes.NewInt(7), sqltypes.NewFloat(2.5), sqltypes.NewString("abc"), dateA,
		sqltypes.NewBool(true), sqltypes.Null(sqltypes.KindInt),
	}
	rt := newRuntime(context.Background(), settings)
	rt.outer = []Row{{
		sqltypes.NewInt(7), sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(2.5), sqltypes.NewFloat(math.NaN()),
		sqltypes.NewString("abc"), sqltypes.Null(sqltypes.KindString), dateA, sqltypes.Null(sqltypes.KindDate),
		sqltypes.NewBool(true), sqltypes.Null(sqltypes.KindBool),
	}}
	return rt
}

func callExpr(name string, k sqltypes.Kind, pos int, args ...plan.Expr) *plan.Call {
	return &plan.Call{Name: name, Typ: typeOf(k), Pos: pos, Args: args}
}

// diffOperands is the operand pool: every leaf shape over every kind,
// a few computed operands, and leaves that do not resolve.
func diffOperands() []plan.Expr {
	var ops []plan.Expr
	for c, k := range diffKinds {
		ops = append(ops,
			&plan.ColRef{Index: c, Name: fmt.Sprintf("c%d", c), Typ: typeOf(k)},
			&plan.CorrRef{Levels: 1, Index: c, Name: fmt.Sprintf("o%d", c), Typ: typeOf(k)})
	}
	for _, v := range []sqltypes.Value{
		sqltypes.NewInt(7), sqltypes.NewInt(0), sqltypes.NewFloat(2.5), sqltypes.NewFloat(0),
		sqltypes.NewString("abc"), sqltypes.NewString("a%"), dateA, dateB,
		sqltypes.NewBool(true), sqltypes.NewBool(false),
		sqltypes.Null(sqltypes.KindInt), sqltypes.Null(sqltypes.KindFloat), sqltypes.Null(sqltypes.KindString),
		sqltypes.Null(sqltypes.KindDate), sqltypes.Null(sqltypes.KindBool), sqltypes.Null(sqltypes.KindUnknown),
	} {
		ops = append(ops, &plan.Lit{Val: v})
	}
	for p, k := range []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString,
		sqltypes.KindDate, sqltypes.KindBool, sqltypes.KindInt} {
		ops = append(ops, &plan.Param{Index: p, Typ: typeOf(k)})
	}
	c := func(i int) plan.Expr { return ops[2*i] }
	ops = append(ops,
		callExpr("NEG", sqltypes.KindInt, 3, c(0)),
		callExpr("+", sqltypes.KindInt, 9, c(0), c(1)),
		callExpr("YEAR", sqltypes.KindInt, 0, c(6)),
		callExpr("UPPER", sqltypes.KindString, 0, c(4)),
		&plan.Cast{X: c(0), Kind: sqltypes.KindFloat},
		// Leaves that do not resolve.
		&plan.ColRef{Index: 99, Name: "far", Typ: typeOf(sqltypes.KindInt)},
		&plan.ColRef{Index: -1, Name: "neg", Typ: typeOf(sqltypes.KindInt)},
		&plan.CorrRef{Levels: 2, Index: 0, Name: "escapes", Typ: typeOf(sqltypes.KindInt)},
		&plan.CorrRef{Levels: 1, Index: 99, Name: "ofar", Typ: typeOf(sqltypes.KindInt)},
		&plan.Param{Index: 9, Typ: typeOf(sqltypes.KindInt)},
	)
	return ops
}

// sameError requires two errors to be both nil, or to have the same text
// and, when structured, the same code, phase and position.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Error() != b.Error() {
		return false
	}
	var ea, eb *Error
	if errors.As(a, &ea) != errors.As(b, &eb) {
		return false
	}
	return ea == nil || (ea.Code == eb.Code && ea.Phase == eb.Phase && ea.Pos == eb.Pos)
}

// diffChecker compares the compiled forms of expressions with the
// interpreter over a fixed set of rows.
type diffChecker struct {
	t     *testing.T
	rt    *runtime
	rows  []Row
	exprs int
	evals int
}

func (d *diffChecker) check(e plan.Expr) {
	d.t.Helper()
	d.exprs++
	val, pred := compileExpr(e), compilePred(e)
	for _, row := range d.rows {
		d.evals++
		want, wantErr := d.rt.refEval(e, row)
		got, gotErr := val(d.rt, row)
		if !sameError(gotErr, wantErr) || (wantErr == nil && got != want) {
			d.t.Fatalf("%s over %v:\n compiled    %#v, %v\n interpreter %#v, %v", e, row, got, gotErr, want, wantErr)
		}
		truth, predErr := pred(d.rt, row)
		if !sameError(predErr, wantErr) || (wantErr == nil && truth != triOf(want)) {
			d.t.Fatalf("%s over %v: predicate form %d, %v; interpreter %#v, %v", e, row, truth, predErr, want, wantErr)
		}
		if len(d.rt.args) != 0 {
			d.t.Fatalf("%s over %v: %d values left on the argument stack", e, row, len(d.rt.args))
		}
	}
}

var diffBinaryCalls = []struct {
	name string
	kind sqltypes.Kind
}{
	{"=", sqltypes.KindBool}, {"<>", sqltypes.KindBool}, {"<", sqltypes.KindBool},
	{"<=", sqltypes.KindBool}, {">", sqltypes.KindBool}, {">=", sqltypes.KindBool},
	{"+", sqltypes.KindInt}, {"-", sqltypes.KindInt}, {"*", sqltypes.KindFloat},
	{"/", sqltypes.KindFloat}, {"%", sqltypes.KindInt}, {"||", sqltypes.KindString},
	{"LIKE", sqltypes.KindBool}, {"NULLIF", sqltypes.KindInt},
}

// unknownExpr is an expression form the executor does not know.
type unknownExpr struct{}

func (unknownExpr) Type() sqltypes.Type { return typeOf(sqltypes.KindInt) }
func (unknownExpr) String() string      { return "unknown" }

func TestCompiledMatchesInterpreter(t *testing.T) {
	d := &diffChecker{t: t, rt: diffRuntime(), rows: diffRows()}
	ops := diffOperands()

	// Leaves and every unary form over every operand.
	for _, x := range ops {
		d.check(x)
		d.check(&plan.Not{X: x})
		d.check(&plan.IsNull{X: x})
		d.check(&plan.IsNull{X: x, Neg: true})
		for _, k := range []sqltypes.Kind{sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindFloat,
			sqltypes.KindString, sqltypes.KindDate} {
			d.check(&plan.Cast{X: x, Kind: k})
		}
		for _, name := range []string{"YEAR", "NEG", "ABS", "UPPER", "LENGTH", "NOPE"} {
			d.check(callExpr(name, sqltypes.KindInt, 4, x))
		}
		d.check(callExpr("COALESCE", x.Type().Kind, 0, x, ops[0]))
	}

	// Every binary form over every pair of operands.
	for _, l := range ops {
		for _, r := range ops {
			for pos, bc := range diffBinaryCalls {
				d.check(callExpr(bc.name, bc.kind, pos%3*5, l, r))
			}
			d.check(&plan.IsDistinct{L: l, R: r})
			d.check(&plan.IsDistinct{L: l, R: r, Neg: true})
			d.check(&plan.And{L: l, R: r})
			d.check(&plan.Or{L: l, R: r})
		}
	}

	// IN over literal lists (the compile-time set), lists the set does not
	// cover, and lists with non-literal items.
	lit := func(v sqltypes.Value) plan.Expr { return &plan.Lit{Val: v} }
	lists := [][]plan.Expr{
		{lit(sqltypes.NewInt(7)), lit(sqltypes.NewInt(0)), lit(sqltypes.NewInt(math.MaxInt64))},
		{lit(sqltypes.NewInt(1)), lit(sqltypes.Null(sqltypes.KindInt)), lit(sqltypes.NewInt(7))},
		{lit(sqltypes.NewString("abc")), lit(sqltypes.NewString(""))},
		{lit(sqltypes.NewString("zzz")), lit(sqltypes.Null(sqltypes.KindString))},
		{lit(dateA), lit(dateB)},
		{lit(sqltypes.NewFloat(2.5)), lit(sqltypes.NewFloat(math.NaN()))},
		{lit(sqltypes.NewInt(7)), lit(sqltypes.NewFloat(2.5))},
		{lit(sqltypes.NewInt(7)), lit(sqltypes.NewString("abc"))},
		{lit(sqltypes.NewBool(true))},
		{lit(sqltypes.Null(sqltypes.KindUnknown))},
		{ops[2], lit(sqltypes.NewInt(7))},
		{lit(sqltypes.NewInt(3)), &plan.Param{Index: 0, Typ: typeOf(sqltypes.KindInt)}},
		{lit(sqltypes.NewInt(7)), &plan.Param{Index: 9, Typ: typeOf(sqltypes.KindInt)}},
		{},
	}
	for _, x := range ops {
		for _, list := range lists {
			d.check(&plan.InList{X: x, List: list})
			d.check(&plan.InList{X: x, List: list, Neg: true})
		}
	}

	// Forms with no operands, and CASE with and without ELSE.
	d.check(&plan.AggRef{Index: 0, Typ: typeOf(sqltypes.KindInt)})
	d.check(unknownExpr{})
	for _, cond := range ops {
		d.check(&plan.Case{Typ: typeOf(sqltypes.KindInt), Whens: []plan.CaseWhen{{Cond: cond, Then: ops[0]}}})
		d.check(&plan.Case{Typ: typeOf(sqltypes.KindString), Else: ops[8], Whens: []plan.CaseWhen{
			{Cond: callExpr("<", sqltypes.KindBool, 0, ops[0], ops[2]), Then: ops[4]},
			{Cond: cond, Then: ops[10]},
		}})
	}

	// Random trees nest the forms in one another.
	rng := rand.New(rand.NewSource(18))
	var tree func(depth int) plan.Expr
	tree = func(depth int) plan.Expr {
		if depth == 0 || rng.Intn(4) == 0 {
			return ops[rng.Intn(len(ops))]
		}
		sub := func() plan.Expr { return tree(depth - 1) }
		switch rng.Intn(9) {
		case 0:
			return &plan.And{L: sub(), R: sub()}
		case 1:
			return &plan.Or{L: sub(), R: sub()}
		case 2:
			return &plan.Not{X: sub()}
		case 3:
			return &plan.IsDistinct{L: sub(), R: sub(), Neg: rng.Intn(2) == 0}
		case 4:
			return &plan.IsNull{X: sub(), Neg: rng.Intn(2) == 0}
		case 5:
			return &plan.Case{Typ: typeOf(sqltypes.KindInt), Else: sub(),
				Whens: []plan.CaseWhen{{Cond: sub(), Then: sub()}, {Cond: sub(), Then: sub()}}}
		case 6:
			return &plan.InList{X: sub(), List: []plan.Expr{sub(), sub()}, Neg: rng.Intn(2) == 0}
		case 7:
			return &plan.Cast{X: sub(), Kind: sqltypes.Kind(1 + rng.Intn(5))}
		}
		bc := diffBinaryCalls[rng.Intn(len(diffBinaryCalls))]
		return callExpr(bc.name, bc.kind, rng.Intn(20), sub(), sub())
	}
	for i := 0; i < 4000; i++ {
		d.check(tree(3))
	}
	t.Logf("%d expressions, %d evaluations in each form", d.exprs, d.evals)
}

// The expressions the query generator writes, bound as the engine binds
// them, over the rows of the table they read.
func TestCompiledMatchesInterpreterGenerated(t *testing.T) {
	cat := catalog.New()
	cols := []string{"prodName", "custName", "orderDate", "revenue", "cost"}
	types := []sqltypes.Type{typeOf(sqltypes.KindString), typeOf(sqltypes.KindString),
		typeOf(sqltypes.KindDate), typeOf(sqltypes.KindInt), typeOf(sqltypes.KindInt)}
	orders, err := cat.CreateTable("Orders", cols, types, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := datagen.Generate(datagen.Config{Seed: 18, Customers: 20, Products: 5, Orders: 60, Years: 2}).Orders
	rows = append(rows, Row{sqltypes.Null(sqltypes.KindString), sqltypes.Null(sqltypes.KindString),
		sqltypes.Null(sqltypes.KindDate), sqltypes.Null(sqltypes.KindInt), sqltypes.Null(sqltypes.KindInt)})
	if err := orders.Data.Insert(rows); err != nil {
		t.Fatal(err)
	}
	d := &diffChecker{t: t, rt: diffRuntime(), rows: orders.Rows()}

	// overScan reports whether n's rows are the table's: a Scan under
	// Filters only.
	var overScan func(n plan.Node) bool
	overScan = func(n plan.Node) bool {
		switch n := n.(type) {
		case *plan.Scan:
			return true
		case *plan.Filter:
			return overScan(n.Input)
		}
		return false
	}
	gen := qgen.New(18, qgen.DefaultCatalog())
	for i := 0; i < 300; i++ {
		sql := gen.ScalarQuery()
		q, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		node, err := binder.New(cat).BindQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan.Walk(node, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.Filter:
				if overScan(n.Input) {
					d.check(n.Pred)
				}
			case *plan.Project:
				if overScan(n.Input) {
					for _, ne := range n.Exprs {
						d.check(ne.Expr)
					}
				}
			}
		})
	}
	if d.exprs < 300 {
		t.Fatalf("only %d generated expressions reached the check", d.exprs)
	}
	t.Logf("%d expressions, %d evaluations in each form", d.exprs, d.evals)
}

// TestCompiledEvaluationOrder logs every call of COALESCE — with one
// argument the identity, and not strict, so it is called for a NULL too —
// by wrapping the registered function's Eval for the length of the test:
// what was evaluated, in which order and how often is then on record.
func TestCompiledEvaluationOrder(t *testing.T) {
	var traceLog []sqltypes.Value
	coalesce := fn.MustLookupScalar("COALESCE")
	eval := coalesce.Eval
	coalesce.Eval = func(args []sqltypes.Value) (sqltypes.Value, error) {
		traceLog = append(traceLog, args[0])
		return eval(args)
	}
	t.Cleanup(func() { coalesce.Eval = eval })
	trace := func(v sqltypes.Value) plan.Expr {
		return callExpr("COALESCE", v.K, 0, &plan.Lit{Val: v})
	}
	i, b := sqltypes.NewInt, sqltypes.NewBool
	null := sqltypes.Null(sqltypes.KindInt)
	overflow := callExpr("+", sqltypes.KindInt, 2, &plan.Lit{Val: i(math.MaxInt64)}, &plan.Lit{Val: i(1)})
	cases := []struct {
		name  string
		e     plan.Expr
		want  []sqltypes.Value
		fails bool
	}{
		{"arguments left to right", callExpr("+", sqltypes.KindInt, 0, trace(i(1)), trace(i(2))), []sqltypes.Value{i(1), i(2)}, false},
		{"generic call left to right", callExpr("CONCAT", sqltypes.KindString, 0, trace(i(1)), trace(i(2)), trace(i(3))),
			[]sqltypes.Value{i(1), i(2), i(3)}, false},
		{"strict NULL decided after every argument", callExpr("+", sqltypes.KindInt, 0, trace(null), trace(i(2))),
			[]sqltypes.Value{null, i(2)}, false},
		{"strict NULL, comparison", callExpr("=", sqltypes.KindBool, 0, trace(null), trace(i(2))),
			[]sqltypes.Value{null, i(2)}, false},
		{"strict NULL, generic call", callExpr("MOD", sqltypes.KindInt, 0, trace(null), trace(i(2))),
			[]sqltypes.Value{null, i(2)}, false},
		{"AND stops at FALSE", &plan.And{L: trace(b(false)), R: trace(b(true))}, []sqltypes.Value{b(false)}, false},
		{"AND goes on after TRUE", &plan.And{L: trace(b(true)), R: trace(b(false))}, []sqltypes.Value{b(true), b(false)}, false},
		{"AND goes on after NULL", &plan.And{L: trace(sqltypes.Null(sqltypes.KindBool)), R: trace(b(false))},
			[]sqltypes.Value{sqltypes.Null(sqltypes.KindBool), b(false)}, false},
		{"OR stops at TRUE", &plan.Or{L: trace(b(true)), R: trace(b(false))}, []sqltypes.Value{b(true)}, false},
		{"OR goes on after FALSE", &plan.Or{L: trace(b(false)), R: trace(b(true))}, []sqltypes.Value{b(false), b(true)}, false},
		{"CASE evaluates conditions in order and one branch", &plan.Case{Typ: typeOf(sqltypes.KindInt), Else: trace(i(3)),
			Whens: []plan.CaseWhen{{Cond: trace(b(false)), Then: trace(i(1))}, {Cond: trace(b(true)), Then: trace(i(2))}}},
			[]sqltypes.Value{b(false), b(true), i(2)}, false},
		{"IN stops at the match", &plan.InList{X: trace(i(2)), List: []plan.Expr{trace(i(1)), trace(i(2)), trace(i(3))}},
			[]sqltypes.Value{i(2), i(1), i(2)}, false},
		{"an error stops evaluation", callExpr("+", sqltypes.KindInt, 0, overflow, trace(i(5))), nil, true},
		{"what ran before an error ran once", callExpr("+", sqltypes.KindInt, 0, trace(i(5)), overflow), []sqltypes.Value{i(5)}, true},
	}
	rt := diffRuntime()
	for _, c := range cases {
		forms := map[string]func() error{
			"interpreter": func() error { _, err := rt.refEval(c.e, nil); return err },
			"value form":  func() error { _, err := compileExpr(c.e)(rt, nil); return err },
			"predicate":   func() error { _, err := compilePred(c.e)(rt, nil); return err },
		}
		for form, run := range forms {
			traceLog = nil
			err := run()
			if (err != nil) != c.fails {
				t.Errorf("%s, %s: err = %v", c.name, form, err)
			}
			if !reflect.DeepEqual(traceLog, c.want) {
				t.Errorf("%s, %s: calls %v, want %v", c.name, form, traceLog, c.want)
			}
		}
	}
}

// One compiled plan, in one Pipeline, run by several executions at once,
// each fanning out to four workers and each with its own parameter: the
// closures carry no scratch and no binding, so every execution gets the
// answer of a serial run with its parameter. Meant for -race.
func TestCompiledSharedAcrossWorkers(t *testing.T) {
	scan := bigScan(3 * morselRows)
	a, b, f := col(0, "a"), col(1, "b"), &plan.ColRef{Index: 2, Name: "f", Typ: floatT()}
	param := &plan.Param{Index: 0, Typ: intT()}
	node := &plan.Project{
		Input: &plan.Filter{Input: scan, Pred: &plan.And{
			L: callExpr(">=", sqltypes.KindBool, 0, b, param),
			R: &plan.InList{X: b, List: []plan.Expr{&plan.Lit{Val: sqltypes.NewInt(3)}, &plan.Lit{Val: sqltypes.NewInt(50)}, &plan.Lit{Val: sqltypes.NewInt(96)}}},
		}},
		Exprs: []plan.NamedExpr{
			{Expr: callExpr("+", sqltypes.KindInt, 0, a, callExpr("*", sqltypes.KindInt, 0, b, param)), Col: plan.Col{Name: "x", Typ: intT()}},
			{Expr: &plan.Case{Typ: floatT(), Else: f, Whens: []plan.CaseWhen{
				{Cond: callExpr("<", sqltypes.KindBool, 0, f, &plan.Lit{Val: sqltypes.NewFloat(100)}), Then: callExpr("/", sqltypes.KindFloat, 0, f, b)}}},
				Col: plan.Col{Name: "y", Typ: floatT()}},
		},
		Sch: &plan.Schema{Cols: []plan.Col{{Name: "x", Typ: intT()}, {Name: "y", Typ: floatT()}}},
	}
	run := func(pipe *Pipeline, workers int, p int64) ([]Row, error) {
		settings := DefaultSettings()
		settings.Workers, settings.Pipeline = workers, pipe
		settings.Params = []sqltypes.Value{sqltypes.NewInt(p)}
		return Run(node, settings)
	}
	pipe := NewPipeline()
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			want, err := run(nil, 1, p)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 3; i++ {
				got, err := run(pipe, 4, p)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("parameter %d: shared parallel run differs from the serial one (%d vs %d rows, err %v)", p, len(got), len(want), err)
					return
				}
			}
		}(g * 30)
	}
	wg.Wait()
}
