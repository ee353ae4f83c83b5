package exec

// Unit pack for the set-at-a-time evaluation of equality-correlated
// subqueries (partition.go). The oracle is the same plan with the
// subquery's Memo flag off: it is then evaluated per outer row, never
// through a partition. Results are compared value by value with floats
// by bit pattern.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	stdruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

func strT() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindString} }

func tableScan(name string, cols []string, types []sqltypes.Type, rows []Row) *plan.Scan {
	sch := &plan.Schema{}
	for i, c := range cols {
		sch.Cols = append(sch.Cols, plan.Col{Name: c, Typ: types[i]})
	}
	return &plan.Scan{Source: &testSource{name: name, cols: cols, types: types, rows: rows}, Sch: sch}
}

// factScan is the subquery side: k (INTEGER, every 11th row NULL,
// otherwise i mod 7), s (VARCHAR "s0".."s2"), f (DOUBLE with a long
// mantissa, so accumulation order shows in the low bits), d (i).
func factScan(n int) *plan.Scan {
	rows := make([]Row, n)
	for i := range rows {
		k := sqltypes.NewInt(int64(i % 7))
		if i%11 == 0 {
			k = sqltypes.Null(sqltypes.KindInt)
		}
		rows[i] = Row{k, sqltypes.NewString(fmt.Sprintf("s%d", i%3)),
			sqltypes.NewFloat(float64(i)*0.1 + 1/float64(i+3)), sqltypes.NewInt(int64(i))}
	}
	return tableScan("fact", []string{"k", "s", "f", "d"}, []sqltypes.Type{intT(), strT(), floatT(), intT()}, rows)
}

// ctxScan is the outer side: one row per context, repeated twice so the
// memo sees hits. Keys 0..6 exist in fact, 9 does not (empty bucket),
// and one key is NULL.
func ctxScan() *plan.Scan {
	var rows []Row
	for rep := 0; rep < 2; rep++ {
		for _, k := range []int64{0, 1, 2, 3, 4, 5, 6, 9} {
			rows = append(rows, Row{sqltypes.NewInt(k), sqltypes.NewString(fmt.Sprintf("s%d", k%3))})
		}
		rows = append(rows, Row{sqltypes.Null(sqltypes.KindInt), sqltypes.NewString("s1")})
	}
	return tableScan("ctx", []string{"k", "s"}, []sqltypes.Type{intT(), strT()}, rows)
}

func corr(i int, name string, t sqltypes.Type) *plan.CorrRef {
	return &plan.CorrRef{Levels: 1, Index: i, Name: name, Typ: t}
}

func eq(l, r plan.Expr) plan.Expr {
	return &plan.Call{Name: "=", Typ: boolT(), Args: []plan.Expr{l, r}}
}

func notDistinct(l, r plan.Expr) plan.Expr { return &plan.IsDistinct{L: l, R: r, Neg: true} }

func aggOver(in plan.Node, calls ...plan.AggCall) *plan.Aggregate {
	sch := &plan.Schema{}
	for _, c := range calls {
		sch.Cols = append(sch.Cols, plan.Col{Name: c.Name, Typ: c.Typ})
	}
	return &plan.Aggregate{Input: in, Sets: [][]int{{}}, Aggs: calls, Sch: sch}
}

var (
	countStar = plan.AggCall{Name: "COUNT", Star: true, KeyIndex: -1, Typ: sqltypes.Type{Kind: sqltypes.KindInt}}
	sumF      = plan.AggCall{Name: "SUM", KeyIndex: -1, Typ: sqltypes.Type{Kind: sqltypes.KindFloat},
		Args: []plan.Expr{&plan.ColRef{Index: 2, Name: "f", Typ: sqltypes.Type{Kind: sqltypes.KindFloat}}}}
	avgF = plan.AggCall{Name: "AVG", KeyIndex: -1, Typ: sqltypes.Type{Kind: sqltypes.KindFloat},
		Args: []plan.Expr{&plan.ColRef{Index: 2, Name: "f", Typ: sqltypes.Type{Kind: sqltypes.KindFloat}}}}
)

// overCtx projects (k, <one column per subquery>) over ctxScan.
func overCtx(subs ...*plan.Subquery) *plan.Project {
	outer := ctxScan()
	p := &plan.Project{Input: outer, Sch: &plan.Schema{}}
	add := func(e plan.Expr, name string) {
		c := plan.Col{Name: name, Typ: e.Type()}
		p.Exprs = append(p.Exprs, plan.NamedExpr{Expr: e, Col: c})
		p.Sch.Cols = append(p.Sch.Cols, c)
	}
	add(col(0, "k"), "k")
	for i, sq := range subs {
		add(sq, fmt.Sprintf("q%d", i))
	}
	return p
}

func scalarSub(p plan.Node, typ sqltypes.Type) *plan.Subquery {
	return &plan.Subquery{Plan: p, Mode: plan.SubScalar, Typ: typ, Memo: true}
}

// withoutMemo copies the plan with every Memo flag cleared: the
// per-context oracle.
func withoutMemo(n plan.Node) plan.Node {
	return plan.TransformNodeExprs(n, func(e plan.Expr, _ int) plan.Expr {
		if sq, ok := e.(*plan.Subquery); ok {
			c := *sq
			c.Memo = false
			return &c
		}
		return e
	})
}

func requireSameRows(t *testing.T, what string, want, got []Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: row %d width %d, oracle %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			// A DOUBLE keeps its bit pattern in I, so == is bit equality.
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: row %d col %d = %#v, oracle %#v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// partitionsOf runs node with a profile and returns its rows, the stats
// and the partition bucket count of every subquery, in plan order.
func partitionsOf(t *testing.T, node plan.Node, workers int, vectorized bool) ([]Row, Stats, []int64) {
	t.Helper()
	settings := DefaultSettings()
	settings.Workers = workers
	settings.Vectorized = vectorized
	var stats Stats
	settings.Stats = &stats
	prof := NewProfile(node)
	settings.Profile = prof
	rows, err := Run(node, settings)
	if err != nil {
		t.Fatalf("workers=%d vec=%v: %v", workers, vectorized, err)
	}
	var parts []int64
	plan.Walk(node, func(n plan.Node) {
		plan.VisitNodeExprs(n, func(e plan.Expr) {
			plan.WalkExprs(e, func(x plan.Expr) {
				if sq, ok := x.(*plan.Subquery); ok {
					parts = append(parts, prof.SubqueryMetrics(sq).Load().Partitions)
				}
			})
		})
	})
	return rows, stats.Snapshot(), parts
}

// checkAgainstOracle runs node under every executor setting and worker
// count and compares with the per-context oracle. wantPartitioned says
// whether the (single) subquery of node must have built a partition.
func checkAgainstOracle(t *testing.T, node plan.Node, wantPartitioned bool) {
	t.Helper()
	oracleSettings := DefaultSettings()
	oracleSettings.Workers = 1
	want, err := Run(withoutMemo(node), oracleSettings)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, workers := range []int{1, 4} {
		for _, vectorized := range []bool{false, true} {
			got, _, parts := partitionsOf(t, node, workers, vectorized)
			requireSameRows(t, fmt.Sprintf("workers=%d vec=%v", workers, vectorized), want, got)
			for i, p := range parts {
				if (p > 0) != wantPartitioned {
					t.Fatalf("workers=%d vec=%v: subquery %d partitions=%d, want partitioned=%v",
						workers, vectorized, i, p, wantPartitioned)
				}
			}
		}
	}
}

func TestPartitionScalarModes(t *testing.T) {
	kInner := col(0, "k")
	kOuter := corr(0, "k", intT())
	sInner := &plan.ColRef{Index: 1, Name: "s", Typ: strT()}
	sOuter := corr(1, "s", strT())
	plus1 := func(e plan.Expr) plan.Expr {
		return &plan.Call{Name: "+", Typ: intT(), Args: []plan.Expr{e, &plan.Lit{Val: sqltypes.NewInt(1)}}}
	}
	dBig := &plan.Call{Name: ">", Typ: boolT(), Args: []plan.Expr{col(3, "d"), &plan.Lit{Val: sqltypes.NewInt(40)}}}

	cases := []struct {
		name string
		pred plan.Expr
	}{
		// NULL keys: `=` never matches them, IS NOT DISTINCT FROM pairs
		// the NULL context with the NULL rows.
		{"eq", eq(kInner, kOuter)},
		{"not-distinct", notDistinct(kInner, kOuter)},
		{"operands-swapped", eq(kOuter, kInner)},
		// AT (SET k = CURRENT k - 1) shape: expressions on both sides.
		{"expression-keys", notDistinct(plus1(kInner), plus1(plus1(kOuter)))},
		{"two-keys", &plan.And{L: notDistinct(kInner, kOuter), R: eq(sInner, sOuter)}},
		{"rest-before-and-after", &plan.And{L: dBig, R: &plan.And{L: eq(kInner, kOuter), R: &plan.IsNull{X: sInner, Neg: true}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One subquery per aggregate, so COUNT, SUM and AVG over an
			// empty bucket are all compared.
			var subs []*plan.Subquery
			for _, call := range []plan.AggCall{countStar, sumF, avgF} {
				subs = append(subs, scalarSub(aggOver(&plan.Filter{Input: factScan(500), Pred: tc.pred}, call), call.Typ))
			}
			checkAgainstOracle(t, overCtx(subs...), true)
		})
	}
}

// TestPartitionEmptyBucket pins the aggregate-over-empty-input values a
// missing bucket and a NULL `=` key produce.
func TestPartitionEmptyBucket(t *testing.T) {
	mk := func(call plan.AggCall) plan.Node {
		return overCtx(scalarSub(aggOver(&plan.Filter{Input: factScan(200), Pred: eq(col(0, "k"), corr(0, "k", intT()))}, call), call.Typ))
	}
	for _, tc := range []struct {
		call     plan.AggCall
		wantNull bool
	}{{countStar, false}, {sumF, true}, {avgF, true}} {
		rows, _, parts := partitionsOf(t, mk(tc.call), 1, false)
		if parts[0] == 0 {
			t.Fatalf("%s: not partitioned", tc.call.Name)
		}
		for _, r := range rows {
			absent := r[0].Null || r[0].I == 9
			if !absent {
				continue
			}
			if r[1].Null != tc.wantNull || (!tc.wantNull && r[1].I != 0) {
				t.Fatalf("%s over the empty bucket of key %v = %v", tc.call.Name, r[0], r[1])
			}
		}
	}
}

func TestPartitionExistsAndIn(t *testing.T) {
	filter := func() *plan.Filter {
		return &plan.Filter{Input: factScan(300), Pred: notDistinct(col(0, "k"), corr(0, "k", intT()))}
	}
	exists := &plan.Subquery{Plan: filter(), Mode: plan.SubExists, Typ: boolT(), Memo: true}
	notExists := &plan.Subquery{Plan: filter(), Mode: plan.SubExists, Neg: true, Typ: boolT(), Memo: true}
	sProj := func() plan.Node {
		return &plan.Project{Input: filter(),
			Exprs: []plan.NamedExpr{{Expr: &plan.ColRef{Index: 1, Name: "s", Typ: strT()}, Col: plan.Col{Name: "s", Typ: strT()}}},
			Sch:   &plan.Schema{Cols: []plan.Col{{Name: "s", Typ: strT()}}}}
	}
	in := &plan.Subquery{Plan: sProj(), Mode: plan.SubIn, Typ: boolT(), Memo: true,
		Exprs: []plan.Expr{&plan.ColRef{Index: 1, Name: "s", Typ: strT()}}}
	checkAgainstOracle(t, overCtx(exists, notExists, in), true)
}

// TestPartitionTwoLevelCorrelation: a measure subquery filters its base
// by an IN subquery that is correlated two frames up.
func TestPartitionTwoLevelCorrelation(t *testing.T) {
	link := &plan.Subquery{
		Plan: &plan.Project{
			Input: &plan.Filter{Input: factScan(400),
				Pred: notDistinct(col(0, "k"), &plan.CorrRef{Levels: 2, Index: 0, Name: "k", Typ: intT()})},
			Exprs: []plan.NamedExpr{{Expr: &plan.ColRef{Index: 1, Name: "s", Typ: strT()}, Col: plan.Col{Name: "s", Typ: strT()}}},
			Sch:   &plan.Schema{Cols: []plan.Col{{Name: "s", Typ: strT()}}},
		},
		Mode: plan.SubIn, Typ: boolT(), Memo: true,
		Exprs: []plan.Expr{&plan.ColRef{Index: 1, Name: "s", Typ: strT()}},
	}
	measure := scalarSub(aggOver(&plan.Filter{Input: factScan(60), Pred: link}, sumF), floatT())
	node := overCtx(measure)

	oracleSettings := DefaultSettings()
	oracleSettings.Workers = 1
	want, err := Run(withoutMemo(node), oracleSettings)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, vectorized := range []bool{false, true} {
			got, _, parts := partitionsOf(t, node, workers, vectorized)
			requireSameRows(t, fmt.Sprintf("workers=%d vec=%v", workers, vectorized), want, got)
			// Plan order: the measure (its Filter holds a subquery, so it
			// is evaluated per context), then the link (partitioned).
			if parts[0] != 0 || parts[1] == 0 {
				t.Fatalf("workers=%d vec=%v: partitions %v, want [0, >0]", workers, vectorized, parts)
			}
		}
	}
}

// TestPartitionFallbacks: shapes that must take the per-context path.
func TestPartitionFallbacks(t *testing.T) {
	kEq := eq(col(0, "k"), corr(0, "k", intT()))
	random := &plan.Call{Name: "RANDOM", Typ: floatT()}
	volatileBelow := &plan.Filter{
		Input: &plan.Filter{Input: factScan(100),
			Pred: &plan.Call{Name: "<", Typ: boolT(), Args: []plan.Expr{random, &plan.Lit{Val: sqltypes.NewFloat(2)}}}},
		Pred: kEq,
	}
	cases := []struct {
		name   string
		filter *plan.Filter
	}{
		{"random-input", volatileBelow},
		{"range-context", &plan.Filter{Input: factScan(100),
			Pred: &plan.Call{Name: "<", Typ: boolT(), Args: []plan.Expr{col(0, "k"), corr(0, "k", intT())}}}},
		{"float-key", &plan.Filter{Input: factScan(100),
			Pred: eq(&plan.ColRef{Index: 2, Name: "f", Typ: floatT()}, &plan.Cast{X: corr(0, "k", intT()), Kind: sqltypes.KindFloat})}},
		{"or-of-equalities", &plan.Filter{Input: factScan(100),
			Pred: &plan.Or{L: kEq, R: eq(col(3, "d"), corr(0, "k", intT()))}}},
		{"second-correlated-filter", &plan.Filter{
			Input: &plan.Filter{Input: factScan(100), Pred: eq(col(3, "d"), corr(0, "k", intT()))},
			Pred:  kEq}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstOracle(t, overCtx(scalarSub(aggOver(tc.filter, countStar), intT())), false)
		})
	}
}

// TestPartitionSingleContext: a subquery evaluated over one outer row
// never builds. Over two rows of one key, the folding partition is built
// by the first context, in the one scan that context would have made:
// the rows scanned and the result are those of per-context evaluation.
func TestPartitionSingleContext(t *testing.T) {
	one := []Row{{sqltypes.NewInt(3), sqltypes.NewString("a")}}
	two := append(one, Row{sqltypes.NewInt(3), sqltypes.NewString("b")})
	for _, tc := range []struct {
		name    string
		outer   []Row
		built   bool
		scanned int64
	}{
		{"one-row", one, false, 1 + 100},
		{"two-rows-one-key", two, true, 2 + 100},
	} {
		sub := scalarSub(aggOver(&plan.Filter{Input: factScan(100), Pred: eq(col(0, "k"), corr(0, "k", intT()))}, countStar), intT())
		outer := tableScan("one", []string{"k", "s"}, []sqltypes.Type{intT(), strT()}, tc.outer)
		c := plan.Col{Name: "q", Typ: intT()}
		node := &plan.Project{Input: outer, Exprs: []plan.NamedExpr{{Expr: sub, Col: c}}, Sch: &plan.Schema{Cols: []plan.Col{c}}}
		rows, stats, parts := partitionsOf(t, node, 1, false)
		if (parts[0] > 0) != tc.built || stats.RowsScanned != tc.scanned || stats.SubqueryEvals != 1 {
			t.Fatalf("%s: partitions=%v scanned=%d evals=%d, want built=%v / %d / 1",
				tc.name, parts, stats.RowsScanned, stats.SubqueryEvals, tc.built, tc.scanned)
		}
		want, err := Run(withoutMemo(node), DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, tc.name, want, rows)
	}
}

// TestPartitionOnePass: whatever the worker count, the input is scanned
// once — by the build, which the first context makes — and
// SubqueryEvals still counts distinct contexts.
func TestPartitionOnePass(t *testing.T) {
	const factRows = 5000
	for _, workers := range []int{1, 4} {
		sub := scalarSub(aggOver(&plan.Filter{Input: factScan(factRows), Pred: notDistinct(col(0, "k"), corr(0, "k", intT()))}, sumF), floatT())
		node := overCtx(sub)
		for run := 0; run < 20; run++ {
			_, stats, parts := partitionsOf(t, node, workers, false)
			ctxRows := int64(len(ctxScan().Source.Rows()))
			if stats.RowsScanned != ctxRows+factRows {
				t.Fatalf("workers=%d run %d: scanned %d, want %d", workers, run, stats.RowsScanned, ctxRows+factRows)
			}
			if stats.SubqueryEvals != 9 || stats.SubqueryCacheHits != 9 {
				t.Fatalf("workers=%d: evals=%d hits=%d, want 9/9", workers, stats.SubqueryEvals, stats.SubqueryCacheHits)
			}
			// Buckets: keys 0..6 and NULL.
			if parts[0] != 8 {
				t.Fatalf("workers=%d: %d buckets, want 8", workers, parts[0])
			}
		}
	}
}

// TestPartitionBuildErrorFallsBack: the build evaluates `rest` on rows a
// per-context Filter would have short-circuited away. An error there
// must not fail the statement; the contexts are evaluated one by one.
func TestPartitionBuildErrorFallsBack(t *testing.T) {
	// SQRT(d - 50) raises for d < 50; the contexts only select rows with
	// d >= 50 (d = 60..66 have k = 60 mod 7 ...), so per-context
	// evaluation — the corr conjunct comes first and is FALSE for every
	// other row — never evaluates it on a negative argument.
	sqrt := &plan.Call{Name: "SQRT", Typ: floatT(), Args: []plan.Expr{
		&plan.Call{Name: "-", Typ: intT(), Args: []plan.Expr{col(3, "d"), &plan.Lit{Val: sqltypes.NewInt(50)}}}}}
	pred := &plan.And{
		L: eq(col(3, "d"), corr(0, "d", intT())),
		R: &plan.Call{Name: ">=", Typ: boolT(), Args: []plan.Expr{sqrt, &plan.Lit{Val: sqltypes.NewFloat(0)}}},
	}
	sub := scalarSub(aggOver(&plan.Filter{Input: factScan(100), Pred: pred}, countStar), intT())
	outer := tableScan("ctx", []string{"d"}, []sqltypes.Type{intT()}, []Row{
		{sqltypes.NewInt(60)}, {sqltypes.NewInt(70)}, {sqltypes.NewInt(80)}})
	c := plan.Col{Name: "q", Typ: intT()}
	node := &plan.Project{Input: outer, Exprs: []plan.NamedExpr{{Expr: sub, Col: c}}, Sch: &plan.Schema{Cols: []plan.Col{c}}}
	rows, stats, parts := partitionsOf(t, node, 1, false)
	if parts[0] != 0 {
		t.Fatalf("a failed build must not report a partition, got %d buckets", parts[0])
	}
	for _, r := range rows {
		if r[0].I != 1 {
			t.Fatalf("rows %v, want every count 1", rows)
		}
	}
	// 3 outer + the first context's failed build + 3 per-context
	// fallbacks.
	if stats.RowsScanned != 3+4*100 {
		t.Fatalf("scanned %d, want %d", stats.RowsScanned, 3+4*100)
	}
}

// TestPartitionGovernor: what the buckets hold is charged to
// MaxMemBytes — the rows of a partition that keeps them, the states of
// one that folds them — and a trip surfaces as the statement's error.
func TestPartitionGovernor(t *testing.T) {
	fact := factScan(1000)
	filter := &plan.Filter{Input: fact, Pred: notDistinct(col(0, "k"), corr(0, "k", intT()))}
	sub := &plan.Subquery{Plan: filter, Mode: plan.SubExists, Typ: boolT(), Memo: true}
	p := analyzePartition(sub)
	if p == nil || p.fold != keepRows {
		t.Fatal("shape must be eligible and keep rows")
	}
	settings := DefaultSettings()
	settings.Workers = 1
	settings.Limits.MaxMemBytes = 1 << 40
	rt := newRuntime(context.Background(), settings)
	rt.outer = []Row{{sqltypes.NewInt(3)}}
	bucket, ok, err := p.lookup(rt)
	if err != nil || !ok || len(bucket) == 0 {
		t.Fatalf("lookup: %d rows ok=%v err=%v", len(bucket), ok, err)
	}
	scanned := rowsBytes(fact.Source.Rows())
	if got := rt.sh.bud.memBytes.Load(); got != 2*scanned {
		t.Fatalf("charged %d bytes, want the Below output plus the index = %d", got, 2*scanned)
	}

	// End to end: the limit admits every operator output of the
	// statement but not the index on top of them.
	node := overCtx(sub)
	settings = DefaultSettings()
	settings.Workers = 1
	settings.Limits.MaxMemBytes = 3*scanned + scanned/2
	if _, err := Run(node, settings); !errors.Is(err, CodeResourceExhausted) {
		t.Fatalf("want CodeResourceExhausted from the index charge, got %v", err)
	}

	// Folded: the Below output plus, per bucket, the group and its states.
	folded := scalarSub(aggOver(&plan.Filter{Input: fact, Pred: filter.Pred}, countStar, sumF), floatT())
	if p := analyzePartition(folded); p == nil || p.fold != foldStates {
		t.Fatal("the aggregate over the Filter must fold")
	} else {
		settings = DefaultSettings()
		settings.Workers = 1
		settings.Limits.MaxMemBytes = 1 << 40
		rt := newRuntime(context.Background(), settings)
		rt.outer = []Row{{sqltypes.NewInt(3)}}
		rows, ok, err := p.aggregate(rt)
		if err != nil || !ok || len(rows) != 1 || rows[0][0].I == 0 {
			t.Fatalf("aggregate: %v ok=%v err=%v", rows, ok, err)
		}
		// Keys 0..6 and NULL.
		const buckets = 8
		if got, want := rt.sh.bud.memBytes.Load(), scanned+buckets*(bytesPerRow+2*bytesPerState); got != want {
			t.Fatalf("folded: charged %d bytes, want the Below output plus %d buckets of two states = %d", got, buckets, want)
		}
	}
}

// TestPartitionBuildCancel cancels while the build is scanning: the
// build polls the context every cancelCheckRows rows, waiters leave
// through their own context, and no goroutine outlives the call.
func TestPartitionBuildCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := stdruntime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The first subquery evaluation builds the partition; cancel as
			// it starts.
			var evals atomic.Int64
			SetFailPoint(FailSubqueryEval, func() error {
				if evals.Add(1) == 1 {
					cancel()
				}
				return nil
			})
			defer ClearFailPoints()
			sub := scalarSub(aggOver(&plan.Filter{Input: factScan(20 * cancelCheckRows), Pred: eq(col(0, "k"), corr(0, "k", intT()))}, countStar), intT())
			settings := DefaultSettings()
			settings.Workers = workers
			var stats Stats
			settings.Stats = &stats
			start := time.Now()
			_, err := RunContext(ctx, overCtx(sub), settings)
			if !errors.Is(err, CodeCanceled) {
				t.Fatalf("want CodeCanceled, got %v", err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("cancellation took %v", d)
			}
			deadline := time.Now().Add(2 * time.Second)
			for stdruntime.NumGoroutine() > base+2 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak: %d running, started with %d", stdruntime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestExplainAnalyzeSharedScan: a Scan node shared by the main plan and
// a subquery plan is reported per position, and the partitioned path is
// visible on the subquery line.
func TestExplainAnalyzeSharedScan(t *testing.T) {
	shared := factScan(70)
	sub := scalarSub(aggOver(&plan.Filter{Input: shared, Pred: notDistinct(col(0, "k"), corr(0, "k", intT()))}, countStar), intT())
	c := plan.Col{Name: "q", Typ: intT()}
	node := &plan.Project{Input: shared, Exprs: []plan.NamedExpr{{Expr: sub, Col: c}}, Sch: &plan.Schema{Cols: []plan.Col{c}}}
	settings := DefaultSettings()
	settings.Workers = 1
	prof := NewProfile(node)
	settings.Profile = prof
	if _, err := Run(node, settings); err != nil {
		t.Fatal(err)
	}
	if m := prof.NodeMetrics(nil, shared).Load(); m.Calls != 1 || m.RowsOut != 70 {
		t.Fatalf("main-plan scan: calls=%d rows=%d, want 1/70", m.Calls, m.RowsOut)
	}
	if m := prof.NodeMetrics(sub, shared).Load(); m.Calls != 1 || m.RowsOut != 70 {
		t.Fatalf("subquery scan: calls=%d rows=%d, want 1/70 (the build the first context makes)", m.Calls, m.RowsOut)
	}
	txt := plan.ExplainAnalyzeTree(node, prof)
	// The folded Filter reports the rows its one pass kept: every row, as
	// IS NOT DISTINCT FROM keeps the NULL keys too.
	for _, want := range []string{"(evals=8 hits=62) partitioned=8", "Filter ($0:k IS NOT DISTINCT FROM corr^1$0:k) (rows=70 time="} {
		if !strings.Contains(txt, want) {
			t.Errorf("missing %q in:\n%s", want, txt)
		}
	}
	if n := strings.Count(txt, "Scan fact (rows=70 time="); n != 2 {
		t.Errorf("want the main-plan scan and the subquery's one scan at 70 rows each, found %d in:\n%s", n, txt)
	}
}

// linkedQuery is the naive strategy's shape of a context link whose
// base is no stored table: the relation's LinkRead makes the rows of its
// bottom, fact WHERE d > 20, and the Aggregate over them counts each
// key's rows; the measure of each group reads the rows at the positions
// its own run of the FROM tree keeps for the group.
//
//	SELECT k, COUNT(*), (SELECT SUM(f) FROM <the group's linked rows>)
//	FROM <fact WHERE d > 20 with positions> GROUP BY k
func linkedQuery() *plan.Project {
	bottom := &plan.Filter{Input: factScan(300), Pred: &plan.Call{Name: ">", Typ: boolT(),
		Args: []plan.Expr{col(3, "d"), intLit(20)}}}
	link := &plan.RowLink{}
	from := &plan.LinkRead{Link: link, Input: bottom,
		Sch: &plan.Schema{Cols: append(bottom.Schema().Cols[:4:4], plan.Col{Name: "position", Typ: intT()})}}
	agg := &plan.Aggregate{Input: from, GroupExprs: []plan.Expr{col(0, "k")}, Sets: [][]int{{0}},
		Aggs: []plan.AggCall{countStar},
		Sch:  &plan.Schema{Cols: []plan.Col{{Name: "k", Typ: intT()}, {Name: "n", Typ: intT()}}}}
	positions := plan.AggCall{Name: "POSITIONS", Args: []plan.Expr{col(4, "position")}, KeyIndex: -1, Link: link, Typ: intT()}
	group := scalarSub(aggOver(&plan.Filter{Input: from,
		Pred: notDistinct(col(0, "k"), &plan.CorrRef{Levels: 2, Index: 0, Name: "k", Typ: intT()})}, positions), intT())
	group.Memo = false
	read := &plan.LinkRead{Link: link, Group: group, Sch: bottom.Schema()}
	measure := scalarSub(aggOver(read, sumF), floatT())
	measure.Memo = false
	return &plan.Project{Input: agg, Exprs: []plan.NamedExpr{
		{Expr: col(0, "k"), Col: plan.Col{Name: "k", Typ: intT()}},
		{Expr: col(1, "n"), Col: plan.Col{Name: "n", Typ: intT()}},
		{Expr: measure, Col: plan.Col{Name: "s", Typ: floatT()}},
	}, Sch: &plan.Schema{Cols: []plan.Col{{Name: "k", Typ: intT()}, {Name: "n", Typ: intT()}, {Name: "s", Typ: floatT()}}}}
}

// answersOne is a lattice that answers one Aggregate with the rows it
// was given and reads no table.
type answersOne struct {
	agg  *plan.Aggregate
	rows [][]sqltypes.Value
}

func (a *answersOne) Analyze(n *plan.Aggregate) any {
	if n != a.agg {
		return nil
	}
	return n
}

func (a *answersOne) Answer(n any, _ func(plan.Expr) (sqltypes.Value, error), _ func(*Table, []int32, []int) ([][]sqltypes.Value, error)) ([][]sqltypes.Value, bool, error) {
	return a.rows, n != nil, nil
}

// The base rows of a context link are made once per execution, by
// whichever read comes first: when the lattice answers the Aggregate,
// nothing runs its input and the first group's read makes them. The
// input table is scanned exactly once either way, the rows are those of
// a run without the lattice and every group's sum is that of its rows.
// Four executions of one cached plan at once, with four workers each,
// make their own and agree too.
func TestLinkBaseMadeOnceWhenTheLatticeAnswered(t *testing.T) {
	node := linkedQuery()
	agg := node.Input.(*plan.Aggregate)
	run := func(rollups RollupProvider, workers int, pipe *Pipeline) ([]Row, Stats, error) {
		settings := DefaultSettings()
		settings.Workers, settings.Rollups, settings.Pipeline = workers, rollups, pipe
		var stats Stats
		settings.Stats = &stats
		rows, err := Run(node, settings)
		return rows, stats.Snapshot(), err
	}
	want, stats, err := run(nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsScanned != 300 {
		t.Fatalf("without the lattice: %d rows scanned, want 300 (every read reads the rows made once)", stats.RowsScanned)
	}
	sums := map[string]float64{}
	for i, row := range factScan(300).Source.Rows() {
		if i > 20 {
			sums[row[0].String()] += row[2].F()
		}
	}
	for _, row := range want {
		if s := sums[row[0].String()]; row[2].F() != s {
			t.Fatalf("group %s sums %v, want %v", row[0], row[2], s)
		}
	}
	aggRows, err := Run(agg, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	lattice := &answersOne{agg: agg, rows: aggRows}
	for _, workers := range []int{1, 4} {
		got, stats, err := run(lattice, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, fmt.Sprintf("lattice, workers=%d", workers), want, got)
		if stats.RollupHits != 1 || stats.RowsScanned != 300 {
			t.Fatalf("lattice, workers=%d: %d hits, %d rows scanned, want 1 and 300 (the first read)",
				workers, stats.RollupHits, stats.RowsScanned)
		}
	}

	pipe := NewPipeline()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var rollups RollupProvider
				if (g+i)%2 == 0 {
					rollups = lattice
				}
				got, _, err := run(rollups, 4, pipe)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent execution %d.%d differs from the serial one (err %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
