package exec

// Count-based allocation regression tests for the per-row hot paths.
// They assert object counts with testing.AllocsPerRun, never time.

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// A compiled call pushes its arguments on the runtime's argument stack:
// once the stack has grown, evaluating nested calls allocates nothing,
// and the stack is popped on the way out — error returns included.
func TestEvalCallDoesNotAllocate(t *testing.T) {
	rt := newRuntime(context.Background(), DefaultSettings())
	mul := &plan.Call{Name: "*", Typ: intT(), Args: []plan.Expr{col(1, "b"), &plan.Lit{Val: sqltypes.NewInt(3)}}}
	// ABS keeps one call on the generic n-ary path next to the
	// specialised arithmetic and comparison.
	sum := &plan.Call{Name: "ABS", Typ: intT(), Args: []plan.Expr{
		&plan.Call{Name: "+", Typ: intT(), Args: []plan.Expr{col(0, "a"), mul}}}}
	e := &plan.Call{Name: ">", Typ: boolT(), Args: []plan.Expr{sum, &plan.Lit{Val: sqltypes.NewInt(10)}}}
	f, p := compileExpr(e), compilePred(e)
	row := Row{sqltypes.NewInt(4), sqltypes.NewInt(5)}
	if v, err := f(rt, row); err != nil || !v.IsTrue() {
		t.Fatalf("eval = %v, %v", v, err)
	}
	if n := testing.AllocsPerRun(200, func() { f(rt, row); p(rt, row) }); n != 0 {
		t.Fatalf("compiled call allocates %.0f objects per evaluation, want 0", n)
	}
	if len(rt.args) != 0 {
		t.Fatalf("argument stack not popped: %d left", len(rt.args))
	}
	// A parameter or literal evaluated on its own is read in place.
	rt.sh.settings.Params = []sqltypes.Value{sqltypes.NewInt(1)}
	leaf := &plan.Param{Index: 0, Typ: intT()}
	if n := testing.AllocsPerRun(200, func() { rt.evalOnce(leaf) }); n != 0 {
		t.Fatalf("evalOnce of a parameter allocates %.0f objects, want 0", n)
	}
	// b*3 overflows inside the nested calls: the error pops every level.
	over := Row{sqltypes.NewInt(4), sqltypes.NewInt(math.MaxInt64)}
	if _, err := f(rt, over); err == nil {
		t.Fatal("overflow not reported")
	}
	if len(rt.args) != 0 {
		t.Fatalf("argument stack not popped after an error: %d left", len(rt.args))
	}
}

// A row that lands in an existing group costs no allocation in
// accumulateRows: the key tuple and its encoding are reused and the
// table is probed by hash and key values.
func TestAccumulateRowsAllocatesPerGroupNotPerRow(t *testing.T) {
	scan := bigScan(4000)
	in := scan.Source.Rows()
	agg := &plan.Aggregate{
		Input:      scan,
		GroupExprs: []plan.Expr{col(1, "b")},
		Sets:       [][]int{{0}},
		Aggs: []plan.AggCall{
			{Name: "SUM", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
			{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()},
		},
	}
	env, err := newAggEnv(agg)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(context.Background(), DefaultSettings())
	tables := env.newTables(0)
	// First pass creates the 97 groups and grows the buffers.
	if err := rt.accumulateRows(env, tables, in, 0, len(in)); err != nil {
		t.Fatal(err)
	}
	perCall := testing.AllocsPerRun(20, func() {
		if err := rt.accumulateRows(env, tables, in, 0, len(in)); err != nil {
			t.Fatal(err)
		}
	})
	// The key tuple and the key buffer: per call, not per row.
	if perCall > 4 {
		t.Fatalf("accumulateRows over %d rows of existing groups allocates %.0f objects, want <= 4", len(in), perCall)
	}
}

// A runtime that never memoizes a subquery allocates no memo shard maps
// and no per-subquery table: the constant-folding micro-queries of the
// engine and every plain query take this path.
func TestNewRuntimeAllocatesLazily(t *testing.T) {
	settings := DefaultSettings()
	n := testing.AllocsPerRun(100, func() { newRuntime(context.Background(), settings) })
	// runtime, shared, budget.
	if n > 3 {
		t.Fatalf("newRuntime allocates %.0f objects, want <= 3", n)
	}
}

// A Filter allocates its output once, at its final size: the verdicts go
// to the runtime's reused buffer and the predicate's closures allocate
// nothing per row.
func TestFilterAllocatesPerCallNotPerRow(t *testing.T) {
	scan := bigScan(4000)
	filter := &plan.Filter{Input: scan, Pred: &plan.And{
		L: &plan.Call{Name: ">", Typ: boolT(), Args: []plan.Expr{col(1, "b"), &plan.Lit{Val: sqltypes.NewInt(12)}}},
		R: &plan.Call{Name: "<", Typ: boolT(), Args: []plan.Expr{col(1, "b"), &plan.Lit{Val: sqltypes.NewInt(85)}}},
	}}
	settings := DefaultSettings()
	settings.Workers = 1
	rt := newRuntime(context.Background(), settings)
	rows, err := rt.run(filter)
	if err != nil || len(rows) < 2000 || len(rows) == 4000 {
		t.Fatalf("filter kept %d of 4000 rows, err %v", len(rows), err)
	}
	perCall := testing.AllocsPerRun(20, func() {
		if _, err := rt.run(filter); err != nil {
			t.Fatal(err)
		}
	})
	if perCall > 3 {
		t.Fatalf("Filter over 4000 rows allocates %.0f objects per execution, want <= 3", perCall)
	}
}

// countingRollups answers every COUNT aggregate with one row and declines
// every other, counting what the executor asks of it.
type countingRollups struct{ analyses, hits, misses int }

func (c *countingRollups) Analyze(n *plan.Aggregate) any {
	c.analyses++
	if n.Aggs[0].Name == "COUNT" {
		return n
	}
	return nil
}

func (c *countingRollups) Answer(a any, _ func(plan.Expr) (sqltypes.Value, error), _ func(*Table, []int32, []int) ([][]sqltypes.Value, error)) ([][]sqltypes.Value, bool, error) {
	if a == nil {
		c.misses++
		return nil, false, nil
	}
	c.hits++
	return [][]sqltypes.Value{{sqltypes.NewInt(1)}}, true, nil
}

// A cached plan's expressions are compiled by its first execution and by
// no later one, whatever the parameters: operators the execution never
// reaches compile nothing. The same holds for its plan analyses: the
// split of a partitioned subquery and the rollup provider's analysis of
// each Aggregate live with the compiled programs, while the bucket index
// is built, and the provider answers, once per execution.
func TestCompileOncePerCachedPlan(t *testing.T) {
	scan := bigScan(500)
	param := &plan.Param{Index: 0, Typ: intT()}
	filter := &plan.Filter{Input: scan, Pred: &plan.Call{Name: "<", Typ: boolT(), Args: []plan.Expr{col(1, "b"), param}}}
	node := &plan.Limit{Count: param, Input: &plan.Sort{
		Items: []plan.SortItem{{Expr: col(0, "a"), Desc: true}},
		Input: &plan.Project{
			Input: filter,
			Exprs: []plan.NamedExpr{{Expr: &plan.Call{Name: "*", Typ: intT(), Args: []plan.Expr{col(0, "a"), param}}, Col: plan.Col{Name: "x", Typ: intT()}}},
			Sch:   &plan.Schema{Cols: []plan.Col{{Name: "x", Typ: intT()}}},
		},
	}}
	pipe, vectorized := NewPipeline(), false
	run := func(p int64) []Row {
		settings := DefaultSettings()
		settings.Pipeline, settings.Vectorized = pipe, vectorized
		settings.Params = []sqltypes.Value{sqltypes.NewInt(p)}
		rows, err := Run(node, settings)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first := run(3)
	compiled := pipe.Programs()
	// Filter, Project and Sort; the LIMIT count is read in place.
	if compiled != 3 {
		t.Fatalf("first execution compiled %d programs, want 3", compiled)
	}
	second := run(5)
	if len(first) != 3 || len(second) != 5 || first[0][0].I == second[0][0].I {
		t.Fatalf("executions with different parameters returned %v and %v", first, second)
	}
	if n := pipe.Programs(); n != compiled {
		t.Fatalf("second execution compiled %d more programs", n-compiled)
	}
	// A vectorized execution compiles the columnar form of Filter and
	// Project and the row form of neither.
	pipe, vectorized = NewPipeline(), true
	run(3)
	if row, vec := len(pipe.progs.row), len(pipe.progs.vec); row != 1 || vec != 2 {
		t.Fatalf("vectorized execution compiled %d row and %d columnar programs, want 1 (Sort) and 2", row, vec)
	}

	part := &plan.Subquery{Plan: &plan.Filter{Input: factScan(300), Pred: notDistinct(col(0, "k"), corr(0, "k", intT()))},
		Mode: plan.SubExists, Typ: boolT(), Memo: true}
	// Uncorrelated, so each runs once per execution: a lattice hit and a
	// miss.
	hit := scalarSub(aggOver(factScan(50), countStar), intT())
	miss := scalarSub(aggOver(factScan(50), sumF), floatT())
	measured := overCtx(part, hit, miss)
	pipe = NewPipeline()
	rollups := &countingRollups{}
	var programs int
	var analysed any
	for i := 1; i <= 4; i++ {
		settings := DefaultSettings()
		settings.Workers = 1
		settings.Pipeline, settings.Rollups = pipe, rollups
		prof := NewProfile(measured)
		settings.Profile = prof
		if _, err := Run(measured, settings); err != nil {
			t.Fatal(err)
		}
		if prof.SubqueryMetrics(part).Load().Partitions == 0 {
			t.Fatalf("execution %d: the EXISTS subquery was not partitioned", i)
		}
		if i == 1 {
			programs, analysed = pipe.Programs(), pipe.progs.row[part]
		}
		if n := pipe.Programs(); n != programs {
			t.Fatalf("execution %d: pipeline holds %d programs, %d after the first", i, n, programs)
		}
		if p := pipe.progs.row[part]; p != analysed || p.(*partition) == nil {
			t.Fatalf("execution %d: partition %v, the first analysed %v", i, p, analysed)
		}
		if rollups.analyses != 2 || rollups.hits != i || rollups.misses != i {
			t.Fatalf("execution %d: %d analyses, %d hits, %d misses, want 2, %d, %d",
				i, rollups.analyses, rollups.hits, rollups.misses, i, i)
		}
	}

	// Executions running at once share the analyses and each build their
	// own bucket index.
	settings := DefaultSettings()
	settings.Workers, settings.Rollups = 1, answersEverything{}
	want, err := Run(measured, settings)
	if err != nil {
		t.Fatal(err)
	}
	pipe = NewPipeline()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				settings := DefaultSettings()
				settings.Workers, settings.Pipeline, settings.Rollups = 4, pipe, answersEverything{}
				if got, err := Run(measured, settings); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent execution differs from the serial one (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// keyScan is the build side of the join guards: one row per b value of
// bigScan (0..96), so every probe row finds exactly one partner.
func keyScan() *plan.Scan {
	rows := make([]Row, 97)
	for i := range rows {
		rows[i] = Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 3))}
	}
	return tableScan("k", []string{"b", "x"}, []sqltypes.Type{intT(), intT()}, rows)
}

// A hash join encodes probe keys into one scratch buffer per chunk and
// carves its output rows from blocks: over 10 000 probe rows it
// allocates per distinct build key and per block, serially and with
// three chunks on as many workers.
func TestHashJoinAllocatesPerKeyNotPerRow(t *testing.T) {
	join := &plan.Join{Kind: plan.JoinInner, Left: bigScan(10000), Right: keyScan(),
		EquiLeft: []plan.Expr{col(1, "b")}, EquiRight: []plan.Expr{col(0, "b")}}
	for _, workers := range []int{1, 4} {
		settings := DefaultSettings()
		settings.Workers = workers
		var stats Stats
		settings.Stats = &stats
		rt := newRuntime(context.Background(), settings)
		rows, err := rt.run(join)
		if err != nil || len(rows) != 10000 || rows[5][4].I != 5*3 {
			t.Fatalf("workers=%d: join returned %d rows, err %v", workers, len(rows), err)
		}
		if fanned := stats.Snapshot().ParallelFanouts > 0; fanned != (workers > 1) {
			t.Fatalf("workers=%d: probe fanned out: %v", workers, fanned)
		}
		perCall := testing.AllocsPerRun(10, func() {
			if _, err := rt.run(join); err != nil {
				t.Fatal(err)
			}
		})
		// 97 key strings; the index's slices, ten row blocks and the
		// output slices' growth per chunk; the fan-out's workers.
		if perCall > 97+150 {
			t.Fatalf("workers=%d: hash join of 10 000 rows allocates %.0f objects, want <= %d", workers, perCall, 97+150)
		}
	}
}

// An IN set encodes each row into the runtime's scratch key and inserts
// only tuples it has not seen: 4000 rows of 97 tuples allocate per
// tuple.
func TestInSetBuildAllocatesPerDistinctTuple(t *testing.T) {
	rows := make([]Row, 4000)
	for i := range rows {
		rows[i] = Row{sqltypes.NewInt(int64(i % 97)), sqltypes.NewString("same")}
	}
	sq := &plan.Subquery{Plan: tableScan("t", []string{"b", "s"}, []sqltypes.Type{intT(), strT()}, rows),
		Mode: plan.SubIn, Typ: boolT()}
	rt := newRuntime(context.Background(), DefaultSettings())
	var e memoEntry
	rt.computeSubquery(sq, nil, nil, &e)
	if e.err != nil || len(e.set.keys) != 97 || e.set.count != 4000 {
		t.Fatalf("IN set: %d keys of %d rows, err %v", len(e.set.keys), e.set.count, e.err)
	}
	perCall := testing.AllocsPerRun(10, func() { rt.computeSubquery(sq, nil, nil, &memoEntry{}) })
	// 97 key strings, the set and its map's growth.
	if perCall > 97+30 {
		t.Fatalf("IN set over 4000 rows of 97 tuples allocates %.0f objects, want <= %d", perCall, 97+30)
	}
}

// The group-partitioned parallel aggregation keeps every row's group
// values in one flat array and re-encodes a set key in scratch where it
// needs it: it allocates per group and per worker, not per row.
func TestGroupPartitionedAggAllocatesPerGroupNotPerRow(t *testing.T) {
	scan := bigScan(4000)
	in := scan.Source.Rows()
	agg := &plan.Aggregate{
		Input:      scan,
		GroupExprs: []plan.Expr{col(1, "b")},
		Sets:       [][]int{{0}, {}},
		Aggs:       []plan.AggCall{sumF},
	}
	env, err := newAggEnv(agg)
	if err != nil {
		t.Fatal(err)
	}
	if env.chunkMergeable() {
		t.Fatal("SUM over DOUBLE must take the group-partitioned path")
	}
	settings := DefaultSettings()
	settings.Workers = 4
	rt := newRuntime(context.Background(), settings)
	f := fanout{workers: 4, grain: 1024}
	tables, err := rt.aggGroupPartitioned(env, &feed{rows: in}, f)
	if err != nil || len(tables[0].groups) != 97 || len(tables[1].groups) != 1 {
		t.Fatalf("%d and %d groups, err %v", len(tables[0].groups), len(tables[1].groups), err)
	}
	perCall := testing.AllocsPerRun(10, func() {
		if _, err := rt.aggGroupPartitioned(env, &feed{rows: in}, f); err != nil {
			t.Fatal(err)
		}
	})
	// 98 groups (their states, and the blocks carved for them), the
	// tables, and the workers; one object per row and set would be 8000
	// more.
	if limit := 98*7 + 200.0; perCall > limit {
		t.Fatalf("group-partitioned aggregation of 4000 rows allocates %.0f objects, want <= %.0f", perCall, limit)
	}
}

// A Project carves its output rows from one block per chunk: 10 000
// rows are one chunk serially and three with four workers.
func TestProjectAllocatesPerChunkNotPerRow(t *testing.T) {
	proj := &plan.Project{Input: bigScan(10000), Exprs: []plan.NamedExpr{
		{Expr: col(1, "b"), Col: plan.Col{Name: "b", Typ: intT()}},
		{Expr: &plan.Call{Name: "+", Typ: intT(), Args: []plan.Expr{col(0, "a"), col(1, "b")}}, Col: plan.Col{Name: "s", Typ: intT()}},
	}}
	for _, tc := range []struct {
		workers int
		limit   float64
	}{
		// The output slice and the block.
		{1, 2},
		// Per chunk a block, plus the fan-out's workers.
		{4, 25},
	} {
		settings := DefaultSettings()
		settings.Workers = tc.workers
		var stats Stats
		settings.Stats = &stats
		rt := newRuntime(context.Background(), settings)
		perCall := testing.AllocsPerRun(10, func() {
			if _, err := rt.run(proj); err != nil {
				t.Fatal(err)
			}
		})
		if fanned := stats.Snapshot().ParallelFanouts > 0; fanned != (tc.workers > 1) {
			t.Fatalf("workers=%d: Project fanned out: %v", tc.workers, fanned)
		}
		if perCall > tc.limit {
			t.Fatalf("workers=%d: Project over 10 000 rows allocates %.0f objects, want <= %.0f", tc.workers, perCall, tc.limit)
		}
	}
}

// Rows carved from a shared block are capped at their own width:
// appending to one copies it and leaves its neighbour alone.
func TestCarvedRowsDoNotShareCapacity(t *testing.T) {
	proj := &plan.Project{Input: bigScan(10), Exprs: []plan.NamedExpr{{Expr: col(0, "a"), Col: plan.Col{Name: "a", Typ: intT()}}}}
	join := &plan.Join{Kind: plan.JoinLeft, Left: bigScan(10), Right: keyScan(),
		EquiLeft: []plan.Expr{col(0, "a")}, EquiRight: []plan.Expr{col(1, "x")}}
	for _, n := range []plan.Node{proj, join} {
		rows, err := Run(n, DefaultSettings())
		if err != nil || len(rows) != 10 {
			t.Fatalf("%s: %d rows, err %v", n.Explain(), len(rows), err)
		}
		next := append(Row(nil), rows[1]...)
		for i := range rows {
			if cap(rows[i]) != len(rows[i]) {
				t.Fatalf("%s: row %d has cap %d beyond its %d values", n.Explain(), i, cap(rows[i]), len(rows[i]))
			}
		}
		_ = append(rows[0], sqltypes.NewInt(-1))
		if !reflect.DeepEqual(rows[1], next) {
			t.Fatalf("%s: appending to row 0 changed row 1 to %v", n.Explain(), rows[1])
		}
	}
}

// A grouped aggregate allocates nothing per group: accumulators, state
// slices, each call's states, key tuples, map-key bytes and output rows
// are carved from blocks that double, so 2000 one-row groups of two
// calls cost a logarithmic number of blocks, not their 4000 states.
func TestGroupedAggregateAllocatesPerBlockNotPerGroup(t *testing.T) {
	const groups = 2000
	agg := &plan.Aggregate{
		Input:      bigScan(groups),
		GroupExprs: []plan.Expr{col(0, "a")},
		Sets:       [][]int{{0}},
		Aggs: []plan.AggCall{
			{Name: "SUM", Args: []plan.Expr{col(1, "b")}, KeyIndex: -1, Typ: intT()},
			{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()},
		},
	}
	settings := DefaultSettings()
	settings.Workers = 1
	rt := newRuntime(context.Background(), settings)
	rows, err := rt.run(agg)
	if err != nil || len(rows) != groups {
		t.Fatalf("%d groups, err %v", len(rows), err)
	}
	perCall := testing.AllocsPerRun(10, func() {
		if _, err := rt.run(agg); err != nil {
			t.Fatal(err)
		}
	})
	// The blocks — groups, state slices, each call's states, keys, key
	// bytes — the map's growth and emit's slices: an eighth of an
	// allocation per group is ample, one state per group is not.
	if limit := float64(groups / 8); perCall > limit {
		t.Fatalf("GROUP BY over %d groups allocates %.0f objects, want <= %.0f (per block, not per group)", groups, perCall, limit)
	}
}

// A one-column SUM hands Add the row's own cell: the aggregate allocates
// the same over 16 000 rows as over 4 000.
func TestOneColumnSumAllocatesNothingPerRow(t *testing.T) {
	sum := plan.AggCall{Name: "SUM", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()}
	settings := DefaultSettings()
	settings.Workers = 1
	var allocs []float64
	for _, n := range []int{4000, 16000} {
		agg := aggOver(bigScan(n), sum)
		rt := newRuntime(context.Background(), settings)
		if env, err := rt.aggEnv(agg); err != nil || env.calls[0].kind != callColumn {
			t.Fatalf("SUM(a) must be a one-column call (err %v)", err)
		}
		rows, err := rt.run(agg)
		if err != nil || rows[0][0].I != int64(n*(n-1)/2) {
			t.Fatalf("SUM over %d rows = %v, err %v", n, rows, err)
		}
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			if _, err := rt.run(agg); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[1] != allocs[0] {
		t.Fatalf("SUM allocates %.0f objects over 4 000 rows and %.0f over 16 000", allocs[0], allocs[1])
	}
}

// A folding partition's build keeps no rows: over 1 000 or 8 000 input
// rows it allocates per bucket — its group and states, or its IN set and
// distinct tuples — never per row.
func TestFoldingBuildAllocatesPerBucketNotPerRow(t *testing.T) {
	for _, n := range []int{1000, 8000} {
		pred := notDistinct(col(0, "k"), corr(0, "k", intT()))
		states := scalarSub(aggOver(&plan.Filter{Input: factScan(n), Pred: pred}, countStar, sumF), floatT())
		sets := &plan.Subquery{Plan: &plan.Project{Input: &plan.Filter{Input: factScan(n), Pred: pred},
			Exprs: []plan.NamedExpr{{Expr: &plan.ColRef{Index: 1, Name: "s", Typ: strT()}, Col: plan.Col{Name: "s", Typ: strT()}}},
			Sch:   &plan.Schema{Cols: []plan.Col{{Name: "s", Typ: strT()}}}},
			Mode: plan.SubIn, Typ: boolT(), Memo: true, Exprs: []plan.Expr{&plan.ColRef{Index: 1, Name: "s", Typ: strT()}}}
		for _, tc := range []struct {
			name  string
			sq    *plan.Subquery
			fold  foldKind
			limit float64
		}{
			// 8 buckets (keys 0..6 and NULL) of two states; the blocks,
			// key scratch and map growth.
			{"states", states, foldStates, 8*2 + 40},
			// 8 sets of 3 distinct tuples: the set, its map and the
			// tuples' key strings; the map growth and scratch.
			{"sets", sets, foldSet, 8*(2+3) + 40},
		} {
			p := analyzePartition(tc.sq)
			if p == nil || p.fold != tc.fold {
				t.Fatalf("%s: the shape must fold", tc.name)
			}
			rt := newRuntime(context.Background(), DefaultSettings())
			b, err := p.build(rt)
			if err != nil || b.rows != nil || b.n != 8 {
				t.Fatalf("%s over %d rows: %d buckets, rows kept %v, err %v", tc.name, n, b.n, b.rows != nil, err)
			}
			perBuild := testing.AllocsPerRun(10, func() {
				if _, err := p.build(rt); err != nil {
					t.Fatal(err)
				}
			})
			if perBuild > tc.limit {
				t.Fatalf("%s: build over %d rows allocates %.0f objects, want <= %.0f", tc.name, n, perBuild, tc.limit)
			}
		}
	}
}

// A context link by position allocates per group, not per joined row:
// the Aggregate chains its groups' rows in place, publishes every
// group's positions from one buffer, and each group's read allocates
// its rows' slice. A linked plan over 1 000 and over 8 000 joined rows —
// four groups, each reaching the same customers — allocates alike.
func TestLinkByPositionAllocatesPerGroupNotPerRow(t *testing.T) {
	cust := &testSource{name: "cust", cols: []string{"a"}, types: []sqltypes.Type{intT()}}
	for i := 0; i < 500; i++ {
		cust.rows = append(cust.rows, Row{sqltypes.NewInt(int64(i))})
	}
	link := &plan.RowLink{Table: cust}
	linked := func(joined int) plan.Node {
		src := &testSource{name: "joined", cols: []string{"g", "pos"}, types: []sqltypes.Type{intT(), intT()}}
		for i := 0; i < joined; i++ {
			pos := sqltypes.NewInt(int64(i * 7 % 500))
			if i%10 == 9 { // a NULL-padded row
				pos = sqltypes.Null(sqltypes.KindInt)
			}
			src.rows = append(src.rows, Row{sqltypes.NewInt(int64(i % 4)), pos})
		}
		sch := &plan.Schema{Cols: []plan.Col{{Name: "g", Typ: intT()}, {Name: "pos", Typ: intT()}}}
		agg := &plan.Aggregate{
			Input:      &plan.Scan{Source: src, Sch: sch},
			GroupExprs: []plan.Expr{col(0, "g")},
			Sets:       [][]int{{0}},
			Aggs: []plan.AggCall{
				{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()},
				{Name: "POSITIONS", Args: []plan.Expr{col(1, "pos")}, KeyIndex: -1, Link: link, Typ: intT()},
			},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "g", Typ: intT()}, {Name: "n", Typ: intT()}, {Name: "p", Typ: intT()}}},
		}
		read := &plan.LinkRead{Link: link, Group: &plan.CorrRef{Levels: 1, Index: 2, Name: "p", Typ: intT()},
			Sch: &plan.Schema{Cols: []plan.Col{{Name: "a", Typ: intT()}}}}
		one := &plan.Schema{Cols: []plan.Col{{Name: "c", Typ: intT()}}}
		count := &plan.Aggregate{Input: read, Sets: [][]int{{}},
			Aggs: []plan.AggCall{{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()}}, Sch: one}
		sq := &plan.Subquery{Plan: count, Mode: plan.SubScalar, Typ: intT(), Memo: true}
		return &plan.Project{Input: agg, Sch: one,
			Exprs: []plan.NamedExpr{{Expr: sq, Col: plan.Col{Name: "c", Typ: intT()}}}}
	}
	settings := DefaultSettings()
	settings.Workers = 1
	allocs := map[int]float64{}
	for _, joined := range []int{1000, 8000} {
		p := linked(joined)
		rows, err := Run(p, settings)
		if err != nil {
			t.Fatal(err)
		}
		// Group g holds the rows i ≡ g (mod 4) below 500 whose position
		// 7i mod 500 is not NULL-padded (i mod 10 ≠ 9).
		for g, row := range rows {
			want := map[int]bool{}
			for i := g; i < joined; i += 4 {
				if i%10 != 9 {
					want[i*7%500] = true
				}
			}
			if row[0].I != int64(len(want)) {
				t.Fatalf("%d joined rows, group %d reads %d customers, want %d", joined, g, row[0].I, len(want))
			}
		}
		allocs[joined] = testing.AllocsPerRun(10, func() {
			if _, err := Run(p, settings); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1000] != allocs[8000] {
		t.Fatalf("the linked plan allocates %.0f objects over 1 000 joined rows and %.0f over 8 000", allocs[1000], allocs[8000])
	}
}
