package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// fuseProbe is the probe side of the fusion shapes: a (i), k (the join
// key, i mod 13, every 17th NULL; 12 has no partner), g (i mod 5), f (a
// DOUBLE with a long mantissa, so accumulation order shows in the low
// bits) and p (a position into fuseLinks' first table, every 23rd NULL;
// no two rows share one).
func fuseProbe(n int) *plan.Scan {
	rows := make([]Row, n)
	for i := range rows {
		k := sqltypes.NewInt(int64(i % 13))
		if i%17 == 0 {
			k = sqltypes.Null(sqltypes.KindInt)
		}
		p := sqltypes.NewInt(int64(i * 7 % n))
		if i%23 == 0 {
			p = sqltypes.Null(sqltypes.KindInt)
		}
		rows[i] = Row{sqltypes.NewInt(int64(i)), k, sqltypes.NewInt(int64(i % 5)),
			sqltypes.NewFloat(float64(i)*0.1 + 1/float64(i+3)), p}
	}
	return tableScan("probe", []string{"a", "k", "g", "f", "p"}, []sqltypes.Type{intT(), intT(), intT(), floatT(), intT()}, rows)
}

// fuseBuild is the build side: k mod 3 + 1 rows for each key 0..11 (a
// probe row meets up to three partners) and two rows with a NULL key;
// w is small, q a position into fuseLinks' second table.
func fuseBuild() *plan.Scan {
	var rows []Row
	add := func(k sqltypes.Value) {
		i := int64(len(rows))
		rows = append(rows, Row{k, sqltypes.NewInt(i % 7), sqltypes.NewInt(i * 3 % 40)})
	}
	for k := 0; k < 12; k++ {
		for r := 0; r <= k%3; r++ {
			add(sqltypes.NewInt(int64(k)))
		}
	}
	add(sqltypes.Null(sqltypes.KindInt))
	add(sqltypes.Null(sqltypes.KindInt))
	return tableScan("build", []string{"k", "w", "q"}, []sqltypes.Type{intT(), intT(), intT()}, rows)
}

// fuseLinks are the tables the probe's p (n rows) and the build's q
// index.
func fuseLinks(n int) (*plan.RowLink, *plan.RowLink) {
	table := func(n int) *testSource {
		src := &testSource{name: "linked", cols: []string{"v"}, types: []sqltypes.Type{intT()}}
		for i := 0; i < n; i++ {
			src.rows = append(src.rows, Row{sqltypes.NewInt(int64(i))})
		}
		return src
	}
	return &plan.RowLink{Table: table(n)}, &plan.RowLink{Table: table(40)}
}

func fuseJoin(kind plan.JoinKind, left plan.Node, residual plan.Expr) *plan.Join {
	right := fuseBuild()
	sch := &plan.Schema{Cols: append([]plan.Col{}, left.Schema().Cols...)}
	if kind != plan.JoinSemi {
		sch.Cols = append(sch.Cols, right.Schema().Cols...)
	}
	return &plan.Join{Kind: kind, Left: left, Right: right, Residual: residual, Sch: sch,
		EquiLeft: []plan.Expr{col(1, "k")}, EquiRight: []plan.Expr{col(0, "k")}}
}

func gt(l plan.Expr, v int64) plan.Expr {
	return &plan.Call{Name: ">", Typ: boolT(), Args: []plan.Expr{l, intLit(v)}}
}

func call(name string, typ sqltypes.Type, args ...plan.Expr) plan.AggCall {
	return plan.AggCall{Name: name, Args: args, KeyIndex: -1, Typ: typ}
}

// groupedBy is an Aggregate over in by the given keys in one grouping
// set per entry of sets (all keys when sets is nil).
func groupedBy(in plan.Node, keys []plan.Expr, sets [][]int, calls ...plan.AggCall) *plan.Aggregate {
	if sets == nil {
		all := make([]int, len(keys))
		for i := range all {
			all[i] = i
		}
		sets = [][]int{all}
	}
	sch := &plan.Schema{}
	for _, k := range keys {
		sch.Cols = append(sch.Cols, plan.Col{Name: k.String(), Typ: k.Type()})
	}
	for _, c := range calls {
		sch.Cols = append(sch.Cols, plan.Col{Name: c.Name, Typ: c.Typ})
	}
	return &plan.Aggregate{Input: in, GroupExprs: keys, Sets: sets, Aggs: calls, Sch: sch}
}

// fuseShape is one Aggregate over a Filter or a join, and whether it
// folds its input at one and at four workers.
type fuseShape struct {
	name         string
	agg          *plan.Aggregate
	fused1       bool // fuses on a serial runtime
	fused4       bool // fuses with four workers
	filter, join bool // which operators the fold runs
}

func fuseShapes() []fuseShape {
	const n = 10000
	g := col(2, "g")
	pLink, qLink := fuseLinks(n)
	filtered := func() *plan.Filter { return &plan.Filter{Input: fuseProbe(n), Pred: gt(col(0, "a"), 40)} }
	sumA, avgA := call("SUM", intT(), col(0, "a")), call("AVG", floatT(), col(0, "a"))
	sumF := call("SUM", floatT(), &plan.ColRef{Index: 3, Name: "f", Typ: floatT()})
	w := col(6, "w")
	distinctK := call("COUNT", intT(), col(1, "k"))
	distinctK.Distinct = true
	grouping := plan.AggCall{Name: "GROUPING", KeyIndex: 1, Typ: intT()}
	positions := func(c int, link *plan.RowLink) plan.AggCall {
		pc := call("POSITIONS", intT(), col(c, "pos"))
		pc.Link = link
		return pc
	}
	return []fuseShape{
		{name: "filter chunk-merge", agg: groupedBy(filtered(), []plan.Expr{g}, nil, countStar, sumA, avgA),
			fused1: true, fused4: true, filter: true},
		{name: "filter group-partitioned", agg: groupedBy(filtered(), []plan.Expr{g}, nil, countStar, sumF),
			fused1: true, fused4: true, filter: true},
		{name: "filter distinct", agg: groupedBy(filtered(), []plan.Expr{g}, nil, distinctK),
			fused1: true, fused4: true, filter: true},
		{name: "inner join residual", agg: groupedBy(fuseJoin(plan.JoinInner, fuseProbe(n), gt(w, 1)),
			[]plan.Expr{g}, nil, countStar, sumA, avgA, call("SUM", intT(), w)),
			fused1: true, fused4: true, join: true},
		{name: "left join probe filter", agg: groupedBy(fuseJoin(plan.JoinLeft, filtered(), nil),
			[]plan.Expr{g}, nil, countStar, call("COUNT", intT(), w), call("SUM", intT(), w)),
			fused1: true, fused4: true, filter: true, join: true},
		{name: "semi join", agg: groupedBy(fuseJoin(plan.JoinSemi, filtered(), gt(w, 2)), []plan.Expr{g}, nil, countStar, sumA),
			fused1: true, fused4: true, filter: true, join: true},
		{name: "inner join float sum", agg: groupedBy(fuseJoin(plan.JoinInner, fuseProbe(n), nil), []plan.Expr{g}, nil, countStar, sumF),
			fused1: true, fused4: false, join: true},
		{name: "rollup over join", agg: groupedBy(fuseJoin(plan.JoinInner, filtered(), nil), []plan.Expr{g, w},
			[][]int{{0, 1}, {0}, {}}, countStar, sumA, grouping),
			fused1: true, fused4: true, filter: true, join: true},
		{name: "two links", agg: groupedBy(fuseJoin(plan.JoinLeft, fuseProbe(n), nil), []plan.Expr{g}, nil,
			countStar, positions(4, pLink), positions(7, qLink)),
			fused1: true, fused4: true, join: true},
	}
}

// materialized is agg over its input run beforehand and fed back as the
// rows of a Scan: what the Aggregate folds when nothing is fused.
func materialized(t *testing.T, agg *plan.Aggregate) *plan.Aggregate {
	t.Helper()
	settings := DefaultSettings()
	settings.Workers = 1
	in, err := Run(agg.Input, settings)
	if err != nil {
		t.Fatal(err)
	}
	sch := agg.Input.Schema()
	m := *agg
	m.Input = &plan.Scan{Source: &testSource{name: "input", rows: in}, Sch: sch}
	return &m
}

// runAgg runs agg on a runtime of its own; with materialize it fuses
// nothing, the way an Aggregate over its input's materialized rows runs.
func runAgg(settings *Settings, agg *plan.Aggregate, materialize bool) (*runtime, error) {
	rt := newRuntime(context.Background(), settings)
	if materialize {
		env, err := rt.aggEnv(agg)
		if err != nil {
			return nil, err
		}
		env.fuse = fusion{}
	}
	_, err := rt.run(agg)
	return rt, err
}

// foldAgg runs agg on a runtime of its own and renders every POSITIONS
// handle as the position set it names.
func foldAgg(t *testing.T, agg *plan.Aggregate, workers int) []Row {
	t.Helper()
	settings := DefaultSettings()
	settings.Workers = workers
	rt := newRuntime(context.Background(), settings)
	rows, err := rt.run(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for i, c := range agg.Aggs {
			if c.Link == nil {
				continue
			}
			v := &row[len(agg.GroupExprs)+i]
			e := rt.linkRows(c.Link)
			*v = sqltypes.NewString(fmt.Sprint(e.sets[v.I]))
		}
	}
	return rows
}

// An Aggregate that folds a Filter or a hash join in its own row loop
// makes exactly the rows it makes over the same input materialized and
// fed back as rows — serial, chunk-merged, group-partitioned, across
// join kinds, fan-out and NULL keys, grouping sets and position links.
func TestFusedAggregateMatchesMaterialized(t *testing.T) {
	for _, sh := range fuseShapes() {
		want := foldAgg(t, materialized(t, sh.agg), 1)
		for _, workers := range []int{1, 4} {
			settings := DefaultSettings()
			settings.Workers = workers
			rt := newRuntime(context.Background(), settings)
			env, err := rt.aggEnv(sh.agg)
			if err != nil {
				t.Fatal(err)
			}
			fused := rt.fusing(env, false) != fusion{}
			if wantFused := (workers == 1 && sh.fused1) || (workers == 4 && sh.fused4); fused != wantFused {
				t.Fatalf("%s at %d workers: fused %v, want %v", sh.name, workers, fused, wantFused)
			}
			requireSameRows(t, fmt.Sprintf("%s at %d workers", sh.name, workers), want, foldAgg(t, sh.agg, workers))
		}
	}
}

// The fused operators' EXPLAIN ANALYZE lines show the rows their
// materialized runs make, and the fold's fan-out.
func TestFusedExplainAnalyzeRows(t *testing.T) {
	for _, sh := range fuseShapes() {
		if !sh.fused4 {
			continue
		}
		var ops []plan.Node
		if j, ok := sh.agg.Input.(*plan.Join); ok {
			ops = append(ops, j)
			if f, ok := j.Left.(*plan.Filter); ok {
				ops = append(ops, f)
			}
		} else {
			ops = append(ops, sh.agg.Input)
		}
		for _, workers := range []int{1, 4} {
			profile := func(materialize bool) *Profile {
				settings := DefaultSettings()
				settings.Workers = workers
				settings.Profile = NewProfile(sh.agg)
				if _, err := runAgg(settings, sh.agg, materialize); err != nil {
					t.Fatal(err)
				}
				return settings.Profile
			}
			got, want := profile(false), profile(true)
			for _, op := range ops {
				g, w := got.NodeMetrics(nil, op).Load(), want.NodeMetrics(nil, op).Load()
				if g.RowsOut != w.RowsOut || g.Calls != 1 || w.Calls != 1 {
					t.Fatalf("%s at %d workers: %s reports rows=%d loops=%d, materialized rows=%d loops=%d",
						sh.name, workers, op.Explain(), g.RowsOut, g.Calls, w.RowsOut, w.Calls)
				}
				if fanned := g.MaxWorkers > 1; fanned != (workers > 1) {
					t.Fatalf("%s at %d workers: %s notes %d workers", sh.name, workers, op.Explain(), g.MaxWorkers)
				}
			}
		}
	}
}

// A fused join is charged what its materialized output costs, so the
// budget trips where it trips over the materialized join: with the same
// totals, at the same limits, with the same error.
func TestFusedJoinBudget(t *testing.T) {
	for _, sh := range fuseShapes() {
		if !sh.join {
			continue
		}
		totals := func(materialize bool) (int64, int64) {
			settings := DefaultSettings()
			settings.Workers = 1
			settings.Limits.MaxMemBytes = 1 << 60 // memory is counted only under a limit
			rt, err := runAgg(settings, sh.agg, materialize)
			if err != nil {
				t.Fatal(err)
			}
			return rt.sh.bud.rows.Load(), rt.sh.bud.memBytes.Load()
		}
		rows, mem := totals(false)
		if wr, wm := totals(true); rows != wr || mem != wm {
			t.Fatalf("%s: fused charges %d rows and %d bytes, materialized %d and %d", sh.name, rows, mem, wr, wm)
		}
		for _, lim := range []Limits{{MaxRows: rows - 1}, {MaxRows: rows}, {MaxMemBytes: mem - 1}, {MaxMemBytes: mem}} {
			run := func(materialize bool) error {
				settings := DefaultSettings()
				settings.Workers = 4
				settings.Limits = lim
				_, err := runAgg(settings, sh.agg, materialize)
				return err
			}
			got, want := run(false), run(true)
			if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, CodeResourceExhausted)) {
				t.Fatalf("%s under %+v: fused %v, materialized %v", sh.name, lim, got, want)
			}
			// Without a probe-side Filter the charges come in the same
			// order, so the report is the same.
			if !sh.filter && want != nil && got.Error() != want.Error() {
				t.Fatalf("%s under %+v: fused %q, materialized %q", sh.name, lim, got, want)
			}
		}
	}
}

// Cancellation reaches a fused probe loop: the statement is canceled
// once the build side has run, and only the probe loop polls after that.
func TestFusedProbeCancels(t *testing.T) {
	agg := groupedBy(fuseJoin(plan.JoinInner, fuseProbe(20000), nil), []plan.Expr{col(2, "g")}, nil, countStar)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Int64
		// The Aggregate, the join, the probe scan, the build scan.
		SetFailPoint(FailOperator, func() error {
			if fired.Add(1) == 4 {
				cancel()
			}
			return nil
		})
		settings := DefaultSettings()
		settings.Workers = workers
		_, err := RunContext(ctx, agg, settings)
		ClearFailPoints()
		cancel()
		if !errors.Is(err, CodeCanceled) {
			t.Fatalf("workers=%d: want CodeCanceled, got %v", workers, err)
		}
		if fired.Load() != 4 {
			t.Fatalf("workers=%d: %d operators ran, want 4", workers, fired.Load())
		}
	}
}

// A fused Filter→Aggregate and a fused join→Aggregate allocate per group
// and per build key: over 1 000 and 8 000 source rows they allocate
// alike, where materializing would allocate per kept or joined row.
func TestFusedAggregateAllocatesPerGroupNotPerRow(t *testing.T) {
	sum := call("SUM", intT(), col(0, "a"))
	shapes := map[string]func(n int) *plan.Aggregate{
		"filter": func(n int) *plan.Aggregate {
			return groupedBy(&plan.Filter{Input: bigScan(n), Pred: gt(col(1, "b"), 40)}, []plan.Expr{col(1, "b")}, nil, countStar, sum)
		},
		"join": func(n int) *plan.Aggregate {
			j := &plan.Join{Kind: plan.JoinInner, Left: bigScan(n), Right: keyScan(),
				EquiLeft: []plan.Expr{col(1, "b")}, EquiRight: []plan.Expr{col(0, "b")}}
			return groupedBy(j, []plan.Expr{col(4, "x")}, nil, countStar, sum)
		},
	}
	settings := DefaultSettings()
	settings.Workers = 1
	for name, shape := range shapes {
		allocs := map[int]float64{}
		for _, n := range []int{1000, 8000} {
			agg := shape(n)
			rt := newRuntime(context.Background(), settings)
			env, err := rt.aggEnv(agg)
			if err != nil || rt.fusing(env, false) == (fusion{}) {
				t.Fatalf("%s: the shape must fuse (err %v)", name, err)
			}
			if _, err := rt.run(agg); err != nil {
				t.Fatal(err)
			}
			allocs[n] = testing.AllocsPerRun(10, func() {
				if _, err := rt.run(agg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1000] != allocs[8000] {
			t.Fatalf("%s: a fused Aggregate allocates %.0f objects over 1 000 rows and %.0f over 8 000", name, allocs[1000], allocs[8000])
		}
	}
}

// A Sort carves every row's key tuple from one block: it allocates the
// same over 1 000 rows as over 8 000.
func TestSortAllocatesPerCallNotPerRow(t *testing.T) {
	settings := DefaultSettings()
	settings.Workers = 1
	allocs := map[int]float64{}
	for _, n := range []int{1000, 8000} {
		sort := &plan.Sort{Input: bigScan(n), Items: []plan.SortItem{{Expr: col(1, "b")}, {Expr: col(0, "a"), Desc: true}}}
		rt := newRuntime(context.Background(), settings)
		rows, err := rt.run(sort)
		if err != nil || len(rows) != n || rows[0][0].I != int64((n-1)/97*97) {
			t.Fatalf("sort of %d rows: first %v, err %v", n, rows[0], err)
		}
		allocs[n] = testing.AllocsPerRun(10, func() {
			if _, err := rt.run(sort); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1000] != allocs[8000] {
		t.Fatalf("Sort allocates %.0f objects over 1 000 rows and %.0f over 8 000", allocs[1000], allocs[8000])
	}
}
