package plan_test

// SplitKeyTerms against its three consumers. Each case is one filter
// predicate over t(k INTEGER, s VARCHAR, d INTEGER, f DOUBLE, g INTEGER);
// corr^1 refers to the enclosing row, itself a row of t. A case records
// how SplitKeyTerms reads the predicate, conjunct by conjunct, and the
// verdict each consumer reaches on it:
//
//   - part: the contexts of a memoized COUNT(*) subquery over the Filter,
//     evaluated for every row of t, are answered from one partitioned pass
//     ("part") or one by one ("-");
//   - lattice: COUNT(*) over the Filter is answered by the rollup lattice
//     with the pinned expression as a node key ("key"), with no key
//     ("row"), or not at all ("-");
//   - win: that subquery, under a Filter over t, is rewritten by WinMagic
//     into a window aggregate ("win") or left alone ("-").
//
// The verdicts are those the partition, the lattice gate and WinMagic
// reached when each still kept its own copy of the shape test.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/rollup"
	"github.com/measures-sql/msql/internal/sqltypes"
)

var (
	intT   = sqltypes.Type{Kind: sqltypes.KindInt}
	strT   = sqltypes.Type{Kind: sqltypes.KindString}
	floatT = sqltypes.Type{Kind: sqltypes.KindFloat}
	boolT  = sqltypes.Type{Kind: sqltypes.KindBool}
)

var tCols = []plan.Col{{Name: "k", Typ: intT}, {Name: "s", Typ: strT}, {Name: "d", Typ: intT}, {Name: "f", Typ: floatT}, {Name: "g", Typ: intT}}

func col(i int) *plan.ColRef { return &plan.ColRef{Index: i, Name: tCols[i].Name, Typ: tCols[i].Typ} }
func corr(i int) *plan.CorrRef {
	return &plan.CorrRef{Levels: 1, Index: i, Name: tCols[i].Name, Typ: tCols[i].Typ}
}
func call(name string, typ sqltypes.Type, args ...plan.Expr) *plan.Call {
	return &plan.Call{Name: name, Typ: typ, Args: args}
}
func eq(l, r plan.Expr) plan.Expr   { return call("=", boolT, l, r) }
func indf(l, r plan.Expr) plan.Expr { return &plan.IsDistinct{L: l, R: r, Neg: true} }
func plus(l, r plan.Expr) plan.Expr { return call("+", intT, l, r) }
func intLit(i int64) plan.Expr      { return &plan.Lit{Val: sqltypes.NewInt(i)} }
func or(l, r plan.Expr) plan.Expr   { return &plan.Or{L: l, R: r} }
func and(l, r plan.Expr) plan.Expr  { return &plan.And{L: l, R: r} }
func countOver(in plan.Node) *plan.Aggregate {
	return &plan.Aggregate{Input: in, Sets: [][]int{{}},
		Aggs: []plan.AggCall{{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT}},
		Sch:  &plan.Schema{Cols: []plan.Col{{Name: "n", Typ: intT}}}}
}

// newT returns t with twelve rows: k cycles 0, 1, 2 with a NULL every
// fifth row, d counts up, g is 0.
func newT(t *testing.T) *catalog.BaseTable {
	types := make([]sqltypes.Type, len(tCols))
	names := make([]string, len(tCols))
	for i, c := range tCols {
		names[i], types[i] = c.Name, c.Typ
	}
	bt, err := catalog.New().CreateTable("t", names, types, false)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]sqltypes.Value
	for i := 0; i < 12; i++ {
		k := sqltypes.NewInt(int64(i % 3))
		if i%5 == 4 {
			k = sqltypes.Null(sqltypes.KindInt)
		}
		rows = append(rows, []sqltypes.Value{k, sqltypes.NewString(fmt.Sprintf("s%d", i%2)),
			sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 2), sqltypes.NewInt(0)})
	}
	if err := bt.Data.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return bt
}

func TestSplitKeyTermsAndConsumers(t *testing.T) {
	k, s, d, f := col(0), col(1), col(2), col(3)
	ck, cs, cd, cf := corr(0), corr(1), corr(2), corr(3)
	// GROUPING(d) <> 0 of the enclosing query, as ROLLUP contexts emit it.
	guard := call("<>", boolT, corr(4), intLit(0))
	param := &plan.Param{Index: 0, Typ: intT}
	random := &plan.Cast{X: call("RANDOM", floatT), Kind: sqltypes.KindInt}
	bt := newT(t)
	scan := func() *plan.Scan { return &plan.Scan{Source: bt, Sch: &plan.Schema{Cols: tCols}} }
	uncorrelated := &plan.Subquery{Plan: countOver(scan()), Mode: plan.SubScalar, Typ: intT}

	cases := []struct {
		name               string
		pred               plan.Expr
		split              []string // per conjunct: the key term, or "rest"
		part, lattice, win string
	}{
		{"= inner left", eq(k, ck), []string{"$0:k = corr^1$0:k"}, "part", "key", "win"},
		{"= inner right", eq(ck, k), []string{"$0:k = corr^1$0:k"}, "part", "key", "win"},
		{"not distinct inner left", indf(k, ck), []string{"$0:k <=> corr^1$0:k"}, "part", "key", "win"},
		{"not distinct inner right", indf(ck, k), []string{"$0:k <=> corr^1$0:k"}, "part", "key", "win"},
		{"guard left", or(guard, indf(k, ck)),
			[]string{"$0:k <=> corr^1$0:k if not <>(corr^1$4:g, 0)"}, "-", "key", "-"},
		{"guard right", or(indf(k, ck), guard),
			[]string{"$0:k <=> corr^1$0:k if not <>(corr^1$4:g, 0)"}, "-", "key", "-"},
		{"inner holds a correlated reference", eq(plus(k, cd), ck), []string{"rest"}, "-", "-", "-"},
		{"inner holds a subquery", eq(plus(k, uncorrelated), ck), []string{"rest"}, "-", "-", "-"},
		{"inner holds an aggregate reference", eq(plus(k, &plan.AggRef{Index: 0, Typ: intT}), ck), []string{"rest"}, "-", "-", "-"},
		{"inner holds a parameter", eq(plus(k, param), ck), []string{"+($0:k, param$1) = corr^1$0:k"}, "part", "-", "-"},
		{"inner is volatile", eq(plus(k, random), ck), []string{"rest"}, "-", "-", "-"},
		{"outer reads a column", eq(k, plus(ck, d)), []string{"rest"}, "-", "-", "-"},
		{"INTEGER against DOUBLE", eq(k, &plan.Cast{X: ck, Kind: sqltypes.KindFloat}),
			[]string{"$0:k = CAST(corr^1$0:k AS DOUBLE)"}, "-", "key", "-"},
		{"DOUBLE against DOUBLE", eq(f, cf), []string{"$3:f = corr^1$3:f"}, "-", "-", "win"},
		{"wholly row-independent", eq(intLit(1), ck), []string{"1 = corr^1$0:k"}, "part", "row", "-"},
		{"literal pin", eq(k, intLit(1)), []string{"$0:k = 1"}, "-", "key", "-"},
		{"parameter pin", indf(k, param), []string{"$0:k <=> param$1"}, "-", "key", "-"},
		{"pin on another column", eq(d, ck), []string{"$2:d = corr^1$0:k"}, "part", "key", "-"},
		{"rest then key", and(call(">", boolT, d, intLit(3)), indf(k, ck)),
			[]string{"rest", "$0:k <=> corr^1$0:k"}, "part", "key", "-"},
		{"two keys", and(indf(k, ck), eq(s, cs)),
			[]string{"$0:k <=> corr^1$0:k", "$1:s = corr^1$1:s"}, "part", "key", "win"},
		{"range", call("<", boolT, k, ck), []string{"rest"}, "-", "-", "-"},
		{"IS DISTINCT FROM", &plan.IsDistinct{L: k, R: ck}, []string{"rest"}, "-", "-", "-"},
		{"OR of two pins", or(eq(k, ck), eq(d, cd)), []string{"rest"}, "-", "-", "-"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var split []string
			for _, c := range plan.SplitKeyTerms(tc.pred) {
				split = append(split, describe(c))
			}
			if strings.Join(split, "; ") != strings.Join(tc.split, "; ") {
				t.Errorf("split %q, want %q", split, tc.split)
			}
			if got := partVerdict(scan, tc.pred); got != tc.part {
				t.Errorf("partition: %s, want %s", got, tc.part)
			}
			if got := latticeVerdict(scan, tc.pred); got != tc.lattice {
				t.Errorf("lattice: %s, want %s", got, tc.lattice)
			}
			if got := winVerdict(scan, tc.pred); got != tc.win {
				t.Errorf("WinMagic: %s, want %s", got, tc.win)
			}
		})
	}
}

func describe(c plan.Conjunct) string {
	k := c.Key
	if k == nil {
		return "rest"
	}
	op := "="
	if k.NullSafe {
		op = "<=>"
	}
	out := fmt.Sprintf("%s %s %s", k.Inner, op, k.Outer)
	for _, g := range k.Guards {
		out += fmt.Sprintf(" if not %s", g)
	}
	return out
}

func partVerdict(scan func() *plan.Scan, pred plan.Expr) string {
	sq := &plan.Subquery{Plan: countOver(&plan.Filter{Input: scan(), Pred: pred}), Mode: plan.SubScalar, Typ: intT, Memo: true}
	c := plan.Col{Name: "n", Typ: intT}
	node := &plan.Project{Input: scan(), Exprs: []plan.NamedExpr{{Expr: sq, Col: c}}, Sch: &plan.Schema{Cols: []plan.Col{c}}}
	settings := exec.DefaultSettings()
	settings.Workers = 1
	settings.Params = []sqltypes.Value{sqltypes.NewInt(1)}
	prof := exec.NewProfile(node)
	settings.Profile = prof
	// A shape the plan cannot even run (an aggregate reference in a
	// Filter) is simply not partitioned.
	exec.Run(node, settings)
	if prof.SubqueryMetrics(sq).Load().Partitions > 0 {
		return "part"
	}
	return "-"
}

func latticeVerdict(scan func() *plan.Scan, pred plan.Expr) string {
	l := rollup.New()
	n := countOver(&plan.Filter{Input: scan(), Pred: pred})
	eval := func(plan.Expr) (sqltypes.Value, error) { return sqltypes.NewInt(0), nil }
	emit := func(*exec.Table, []int32, []int) ([][]sqltypes.Value, error) { return nil, nil }
	if _, ok, err := l.Answer(l.Analyze(n), eval, emit); err != nil || !ok {
		return "-"
	}
	if l.Snapshot()[0].Keys != "" {
		return "key"
	}
	return "row"
}

func winVerdict(scan func() *plan.Scan, pred plan.Expr) string {
	sq := &plan.Subquery{
		Plan: &plan.Project{Input: countOver(&plan.Filter{Input: scan(), Pred: pred}),
			Exprs: []plan.NamedExpr{{Expr: &plan.ColRef{Index: 0, Name: "n", Typ: intT}, Col: plan.Col{Name: "n", Typ: intT}}},
			Sch:   &plan.Schema{Cols: []plan.Col{{Name: "n", Typ: intT}}}},
		Mode: plan.SubScalar, Typ: intT, Memo: true,
	}
	outer := &plan.Filter{Input: scan(), Pred: &plan.IsNull{X: sq, Neg: true}}
	if _, rep := optimizer.OptimizeWithReport(outer, optimizer.Options{WinMagic: true}); rep.WinMagicRewrites > 0 {
		return "win"
	}
	return "-"
}
