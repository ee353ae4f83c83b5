package exec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// testSource is an in-memory RowSource for large synthetic inputs.
type testSource struct {
	name  string
	cols  []string
	types []sqltypes.Type
	rows  [][]sqltypes.Value
}

func (s *testSource) Name() string              { return s.name }
func (s *testSource) ColNames() []string        { return s.cols }
func (s *testSource) ColTypes() []sqltypes.Type { return s.types }
func (s *testSource) Rows() [][]sqltypes.Value  { return s.rows }
func (s *testSource) DataState() storage.State  { return storage.State{} }

func floatT() sqltypes.Type { return sqltypes.Type{Kind: sqltypes.KindFloat} }

// bigScan builds a Scan over n rows (a: 0..n-1, b: a mod 97, f: a*0.37).
func bigScan(n int) *plan.Scan {
	src := &testSource{
		name:  "t",
		cols:  []string{"a", "b", "f"},
		types: []sqltypes.Type{intT(), intT(), floatT()},
	}
	for i := 0; i < n; i++ {
		src.rows = append(src.rows, Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i % 97)),
			sqltypes.NewFloat(float64(i) * 0.37),
		})
	}
	sch := &plan.Schema{}
	for i, c := range src.cols {
		sch.Cols = append(sch.Cols, plan.Col{Name: c, Typ: src.types[i]})
	}
	return &plan.Scan{Source: src, Sch: sch}
}

// runBoth executes node serially and with 4 workers and requires
// bit-identical row lists.
func runBoth(t *testing.T, node plan.Node) []Row {
	t.Helper()
	serialSettings := DefaultSettings()
	serialSettings.Workers = 1
	serial, err := Run(node, serialSettings)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parSettings := DefaultSettings()
	parSettings.Workers = 4
	par, err := Run(node, parSettings)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if len(serial) != len(par) {
		t.Fatalf("row count: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if sqltypes.RowKey(serial[i]) != sqltypes.RowKey(par[i]) {
			t.Fatalf("row %d differs: serial %v, parallel %v", i, serial[i], par[i])
		}
	}
	return serial
}

func TestParallelFilterProjectMatchesSerial(t *testing.T) {
	scan := bigScan(10000)
	filter := &plan.Filter{
		Input: scan,
		Pred: &plan.Call{Name: "<", Typ: boolT(),
			Args: []plan.Expr{col(1, "b"), &plan.Lit{Val: sqltypes.NewInt(40)}}},
	}
	projSch := &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}, {Name: "s", Typ: intT()}}}
	project := &plan.Project{
		Input: filter,
		Exprs: []plan.NamedExpr{
			{Expr: col(0, "a"), Col: projSch.Cols[0]},
			{Expr: &plan.Call{Name: "+", Typ: intT(),
				Args: []plan.Expr{col(0, "a"), col(1, "b")}}, Col: projSch.Cols[1]},
		},
		Sch: projSch,
	}
	rows := runBoth(t, project)
	if len(rows) == 0 {
		t.Fatal("expected rows")
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft, plan.JoinFull, plan.JoinSemi} {
		left := bigScan(6000)
		right := bigScan(300)
		sch := &plan.Schema{}
		sch.Cols = append(sch.Cols, left.Sch.Cols...)
		sch.Cols = append(sch.Cols, right.Sch.Cols...)
		if kind == plan.JoinSemi {
			sch = left.Sch
		}
		join := &plan.Join{
			Kind:      kind,
			Left:      left,
			Right:     right,
			EquiLeft:  []plan.Expr{col(1, "b")},
			EquiRight: []plan.Expr{col(1, "b")},
			Sch:       sch,
		}
		runBoth(t, join)
	}
}

func TestParallelAggregateChunkMergeMatchesSerial(t *testing.T) {
	// COUNT/SUM(int)/MIN/MAX merge exactly, so this takes the two-phase
	// chunk-merge path with 4 workers.
	scan := bigScan(20000)
	agg := &plan.Aggregate{
		Input:      scan,
		GroupExprs: []plan.Expr{col(1, "b")},
		Sets:       [][]int{{0}},
		Aggs: []plan.AggCall{
			{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()},
			{Name: "SUM", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
			{Name: "MIN", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
			{Name: "MAX", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
			{Name: "ANY_VALUE", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
		},
		Sch: &plan.Schema{Cols: []plan.Col{
			{Name: "b", Typ: intT()}, {Name: "c", Typ: intT()}, {Name: "s", Typ: intT()},
			{Name: "mn", Typ: intT()}, {Name: "mx", Typ: intT()}, {Name: "av", Typ: intT()},
		}},
	}
	rows := runBoth(t, agg)
	if len(rows) != 97 {
		t.Fatalf("expected 97 groups, got %d", len(rows))
	}
}

func TestParallelAggregateGroupPartitionedMatchesSerial(t *testing.T) {
	// Float SUM/AVG and COUNT(DISTINCT) are order-sensitive, forcing the
	// group-partitioned path; results must still be bit-identical.
	scan := bigScan(20000)
	fcol := &plan.ColRef{Index: 2, Name: "f", Typ: floatT()}
	agg := &plan.Aggregate{
		Input:      scan,
		GroupExprs: []plan.Expr{col(1, "b")},
		Sets:       [][]int{{0}},
		Aggs: []plan.AggCall{
			{Name: "SUM", Args: []plan.Expr{fcol}, KeyIndex: -1, Typ: floatT()},
			{Name: "AVG", Args: []plan.Expr{fcol}, KeyIndex: -1, Typ: floatT()},
			{Name: "COUNT", Args: []plan.Expr{col(0, "a")}, Distinct: true, KeyIndex: -1, Typ: intT()},
			{Name: "VAR_SAMP", Args: []plan.Expr{fcol}, KeyIndex: -1, Typ: floatT()},
		},
		Sch: &plan.Schema{Cols: []plan.Col{
			{Name: "b", Typ: intT()}, {Name: "s", Typ: floatT()}, {Name: "av", Typ: floatT()},
			{Name: "cd", Typ: intT()}, {Name: "vr", Typ: floatT()},
		}},
	}
	rows := runBoth(t, agg)
	if len(rows) != 97 {
		t.Fatalf("expected 97 groups, got %d", len(rows))
	}
}

// TestMemoSingleflightConcurrent hammers one shared memo cache from 8
// goroutines (run under -race in CI): every distinct context must be
// computed exactly once, with all other lookups served by the cache.
func TestMemoSingleflightConcurrent(t *testing.T) {
	cache := new(memoCache)
	sq := &plan.Subquery{}
	const (
		goroutines = 8
		iterations = 5000
		contexts   = 32
	)
	var computes int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				want := int64(i % contexts)
				key := []byte(fmt.Sprintf("ctx-%d", want))
				e, _, err := cache.do(context.Background(), sq, key, func(e *memoEntry) {
					atomic.AddInt64(&computes, 1)
					e.scalar = sqltypes.NewInt(want)
				})
				if err != nil {
					t.Errorf("context %s: %v", key, err)
					return
				}
				if e.scalar.I != want {
					t.Errorf("context %s: got %d, want %d", key, e.scalar.I, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if computes != contexts {
		t.Fatalf("computes = %d, want exactly %d (singleflight violated)", computes, contexts)
	}
}

// TestSharedMemoParallelQuery runs a memoized correlated subquery with
// several workers: total evals+hits must match the serial run, and the
// distinct contexts must each be computed once.
func TestSharedMemoParallelQuery(t *testing.T) {
	mkPlan := func() plan.Node {
		right := bigScan(500)
		sub := &plan.Subquery{
			Mode: plan.SubScalar,
			Memo: true,
			Plan: &plan.Aggregate{
				Input: &plan.Filter{
					Input: right,
					Pred: &plan.Call{Name: "=", Typ: boolT(),
						Args: []plan.Expr{col(1, "b"), &plan.CorrRef{Levels: 1, Index: 1, Name: "b", Typ: intT()}}},
				},
				GroupExprs: nil,
				Sets:       [][]int{{}},
				Aggs:       []plan.AggCall{{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()}},
				Sch:        &plan.Schema{Cols: []plan.Col{{Name: "c", Typ: intT()}}},
			},
			Typ: intT(),
		}
		outer := bigScan(4000)
		return &plan.Project{
			Input: outer,
			Exprs: []plan.NamedExpr{
				{Expr: col(0, "a"), Col: plan.Col{Name: "a", Typ: intT()}},
				{Expr: sub, Col: plan.Col{Name: "c", Typ: intT()}},
			},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}, {Name: "c", Typ: intT()}}},
		}
	}

	runWith := func(workers int) ([]Row, Stats) {
		settings := DefaultSettings()
		settings.Workers = workers
		var stats Stats
		settings.Stats = &stats
		rows, err := Run(mkPlan(), settings)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, stats
	}

	serialRows, serialStats := runWith(1)
	parRows, parStats := runWith(4)
	if len(serialRows) != len(parRows) {
		t.Fatalf("row count: serial %d, parallel %d", len(serialRows), len(parRows))
	}
	for i := range serialRows {
		if sqltypes.RowKey(serialRows[i]) != sqltypes.RowKey(parRows[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
	if serialStats.SubqueryEvals != parStats.SubqueryEvals {
		t.Fatalf("evals: serial %d, parallel %d", serialStats.SubqueryEvals, parStats.SubqueryEvals)
	}
	if serialStats.SubqueryCacheHits != parStats.SubqueryCacheHits {
		t.Fatalf("hits: serial %d, parallel %d", serialStats.SubqueryCacheHits, parStats.SubqueryCacheHits)
	}
	// 97 distinct b values: 97 evals, the rest hits.
	if parStats.SubqueryEvals != 97 {
		t.Fatalf("evals = %d, want 97", parStats.SubqueryEvals)
	}
	if parStats.SubqueryCacheHits != 4000-97 {
		t.Fatalf("hits = %d, want %d", parStats.SubqueryCacheHits, 4000-97)
	}
}

// answersEverything is a RollupProvider that answers every Aggregate with
// one row and reads no table: a lattice hit.
type answersEverything struct{}

func (answersEverything) Analyze(n *plan.Aggregate) any { return n }

func (answersEverything) Answer(any, func(plan.Expr) (sqltypes.Value, error), func(*Table, []int32, []int) ([][]sqltypes.Value, error)) ([][]sqltypes.Value, bool, error) {
	return [][]sqltypes.Value{{sqltypes.NewInt(1)}}, true, nil
}

// TestSubqueryFanOutWaitsForAScan runs a Project over 18 rows, each with a
// correlated subquery, with four workers. While the subqueries are
// lookups the calling goroutine does all of it; once one reads a table
// the other three workers are called in. The rows are those of a serial
// run either way.
func TestSubqueryFanOutWaitsForAScan(t *testing.T) {
	var started atomic.Int64
	SetFailPoint(FailWorkerStart, func() error { started.Add(1); return nil })
	defer ClearFailPoints()

	node := overCtx(scalarSub(aggOver(&plan.Filter{
		Input: factScan(500),
		Pred:  eq(col(0, "k"), corr(0, "k", intT())),
	}, countStar), intT()))
	run := func(rollups RollupProvider, workers int) ([]Row, Stats) {
		settings := DefaultSettings()
		settings.Workers, settings.Rollups = workers, rollups
		var stats Stats
		settings.Stats = &stats
		rows, err := Run(node, settings)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, stats.Snapshot()
	}
	for _, tc := range []struct {
		name    string
		rollups RollupProvider
		started int64
	}{
		{"lookups", answersEverything{}, 0},
		{"scans", nil, 3},
	} {
		want, _ := run(tc.rollups, 1)
		started.Store(0)
		got, stats := run(tc.rollups, 4)
		requireSameRows(t, tc.name, want, got)
		if stats.ParallelFanouts != 1 {
			t.Errorf("%s: ParallelFanouts = %d, want 1 (the operator is still counted as fanned out)", tc.name, stats.ParallelFanouts)
		}
		if n := started.Load(); n != tc.started {
			t.Errorf("%s: %d worker goroutines started, want %d", tc.name, n, tc.started)
		}
	}
}

// TestAggStateMerge verifies that splitting a group's rows into two
// runs and merging the partial states reproduces single-pass results.
func TestAggStateMerge(t *testing.T) {
	intTypes := []sqltypes.Type{intT()}
	vals := make([]sqltypes.Value, 0, 101)
	for i := 0; i < 101; i++ {
		vals = append(vals, sqltypes.NewInt(int64((i*7919)%257)))
	}
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "ANY_VALUE"} {
		def, ok := fn.LookupAgg(name)
		if !ok {
			t.Fatalf("missing aggregate %s", name)
		}
		single := def.New(intTypes)
		first := def.New(intTypes)
		second := def.New(intTypes)
		for i, v := range vals {
			args := []sqltypes.Value{v}
			if err := single.Add(args); err != nil {
				t.Fatal(err)
			}
			dst := first
			if i >= len(vals)/2 {
				dst = second
			}
			if err := dst.Add(args); err != nil {
				t.Fatal(err)
			}
		}
		if err := first.Merge(second); err != nil {
			t.Fatalf("%s merge: %v", name, err)
		}
		got, want := first.Result(), single.Result()
		if sqltypes.RowKey([]sqltypes.Value{got}) != sqltypes.RowKey([]sqltypes.Value{want}) {
			t.Errorf("%s: merged %v, single-pass %v", name, got, want)
		}
	}

	// Variance merges via the pairwise update; allow float tolerance.
	def, _ := fn.LookupAgg("VAR_SAMP")
	single := def.New(intTypes)
	first := def.New(intTypes)
	second := def.New(intTypes)
	for i, v := range vals {
		args := []sqltypes.Value{v}
		_ = single.Add(args)
		if i < len(vals)/2 {
			_ = first.Add(args)
		} else {
			_ = second.Add(args)
		}
	}
	if err := first.Merge(second); err != nil {
		t.Fatal(err)
	}
	got, want := first.Result().F(), single.Result().F()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("VAR_SAMP: merged %v, single-pass %v", got, want)
	}
}

// TestMergeTypeMismatch ensures Merge rejects foreign state types.
func TestMergeTypeMismatch(t *testing.T) {
	count, _ := fn.LookupAgg("COUNT")
	min, _ := fn.LookupAgg("MIN")
	c := count.New(nil)
	m := min.New([]sqltypes.Type{intT()})
	if err := c.Merge(m); err == nil {
		t.Fatal("expected type-mismatch error")
	}
}

func TestResolveWorkers(t *testing.T) {
	if resolveWorkers(1) != 1 || resolveWorkers(5) != 5 {
		t.Fatal("explicit worker counts must pass through")
	}
	if resolveWorkers(0) < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}

// TestParallelPositionsMatchSerial: a POSITIONS call under both parallel
// paths publishes the positions a serial fold does — chunk-merge joins a
// group's position lists across chunks, group-partitioned unites the
// workers' — for every grouping set: each group then reads the same
// linked rows.
func TestParallelPositionsMatchSerial(t *testing.T) {
	cust := &testSource{name: "cust", cols: []string{"a"}, types: []sqltypes.Type{intT()}}
	for i := 0; i < 500; i++ {
		cust.rows = append(cust.rows, Row{sqltypes.NewInt(int64(i))})
	}
	link := &plan.RowLink{Table: cust}
	src := &testSource{name: "joined", cols: []string{"g", "pos", "f"}, types: []sqltypes.Type{intT(), intT(), floatT()}}
	for i := 0; i < 20000; i++ {
		pos := sqltypes.NewInt(int64(i * 7 % 500))
		if i%10 == 9 {
			pos = sqltypes.Null(sqltypes.KindInt)
		}
		src.rows = append(src.rows, Row{sqltypes.NewInt(int64(i % 97)), pos, sqltypes.NewFloat(float64(i) * 0.37)})
	}
	sch := &plan.Schema{Cols: []plan.Col{{Name: "g", Typ: intT()}, {Name: "pos", Typ: intT()}, {Name: "f", Typ: floatT()}}}
	for _, call := range []plan.AggCall{
		{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()},
		{Name: "SUM", Args: []plan.Expr{&plan.ColRef{Index: 2, Name: "f", Typ: floatT()}}, KeyIndex: -1, Typ: floatT()},
	} {
		agg := &plan.Aggregate{
			Input:      &plan.Scan{Source: src, Sch: sch},
			GroupExprs: []plan.Expr{col(0, "g")},
			Sets:       [][]int{{0}, {}},
			Aggs: []plan.AggCall{call,
				{Name: "POSITIONS", Args: []plan.Expr{col(1, "pos")}, KeyIndex: -1, Link: link, Typ: intT()}},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "g", Typ: intT()}, {Name: "n", Typ: call.Typ}, {Name: "p", Typ: intT()}}},
		}
		read := &plan.LinkRead{Link: link, Group: &plan.CorrRef{Levels: 1, Index: 2, Name: "p", Typ: intT()},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}}}}
		sum := &plan.Aggregate{Input: read, Sets: [][]int{{}},
			Aggs: []plan.AggCall{{Name: "SUM", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()}},
			Sch:  &plan.Schema{Cols: []plan.Col{{Name: "s", Typ: intT()}}}}
		sq := &plan.Subquery{Plan: sum, Mode: plan.SubScalar, Typ: intT()}
		out := &plan.Schema{Cols: []plan.Col{{Name: "g", Typ: intT()}, {Name: "n", Typ: call.Typ}, {Name: "s", Typ: intT()}}}
		proj := &plan.Project{Input: agg, Sch: out, Exprs: []plan.NamedExpr{
			{Expr: col(0, "g"), Col: out.Cols[0]},
			{Expr: &plan.ColRef{Index: 1, Name: "n", Typ: call.Typ}, Col: out.Cols[1]},
			{Expr: sq, Col: out.Cols[2]}}}
		settings := DefaultSettings()
		settings.Workers = 4
		var stats Stats
		settings.Stats = &stats
		if _, err := Run(agg, settings); err != nil {
			t.Fatal(err)
		}
		if stats.Snapshot().ParallelFanouts == 0 {
			t.Fatalf("%s: the Aggregate did not fan out", call.Name)
		}
		if rows := runBoth(t, proj); len(rows) != 98 {
			t.Fatalf("%s: %d groups, want 98", call.Name, len(rows))
		}
	}
}
