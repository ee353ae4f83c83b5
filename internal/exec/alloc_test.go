package exec

// Count-based allocation regression tests for the per-row hot paths.
// They assert object counts with testing.AllocsPerRun, never time.

import (
	"context"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// A scalar call pushes its arguments on the runtime's argument stack:
// once the stack has grown, evaluating nested calls allocates nothing.
func TestEvalCallDoesNotAllocate(t *testing.T) {
	rt := newRuntime(context.Background(), DefaultSettings())
	mul := &plan.Call{Name: "*", Typ: intT(), Args: []plan.Expr{col(1, "b"), &plan.Lit{Val: sqltypes.NewInt(3)}}}
	e := &plan.Call{Name: ">", Typ: boolT(), Args: []plan.Expr{
		&plan.Call{Name: "+", Typ: intT(), Args: []plan.Expr{col(0, "a"), mul}},
		&plan.Lit{Val: sqltypes.NewInt(10)}}}
	row := Row{sqltypes.NewInt(4), sqltypes.NewInt(5)}
	if v, err := rt.eval(e, row); err != nil || !v.IsTrue() {
		t.Fatalf("eval = %v, %v", v, err)
	}
	if n := testing.AllocsPerRun(200, func() { rt.eval(e, row) }); n != 0 {
		t.Fatalf("evalCall allocates %.0f objects per evaluation, want 0", n)
	}
	if len(rt.args) != 0 {
		t.Fatalf("argument stack not popped: %d left", len(rt.args))
	}
}

// A row that lands in an existing group costs no allocation in
// accumulateRows: the key tuple and its encoding are reused and the map
// is probed without copying the key.
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
	tables := newSetTables(1)
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
