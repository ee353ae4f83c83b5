package rollup

// The node's keyed layout against what it replaces: group selection
// through a column index must be the selection a scan of every group
// makes, in first-qualifying-row order, through the node's whole life;
// folding rows into existing groups must not allocate per row; and the
// gate must keep requests within the answer's 64-bit masks.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

var (
	boolT = sqltypes.Type{Kind: sqltypes.KindBool}
	intT  = sqltypes.Type{Kind: sqltypes.KindInt}
	strT  = sqltypes.Type{Kind: sqltypes.KindString}
	dateT = sqltypes.Type{Kind: sqltypes.KindDate}
)

// tCols is t(b BOOLEAN, i INTEGER, s VARCHAR, d DATE, v INTEGER): one key
// column of every hash-exact kind, and a value.
var tCols = []plan.Col{{Name: "b", Typ: boolT}, {Name: "i", Typ: intT}, {Name: "s", Typ: strT}, {Name: "d", Typ: dateT}, {Name: "v", Typ: intT}}

func col(i int) *plan.ColRef { return &plan.ColRef{Index: i, Name: tCols[i].Name, Typ: tCols[i].Typ} }

func newTable(t *testing.T) *catalog.BaseTable {
	t.Helper()
	names := make([]string, len(tCols))
	types := make([]sqltypes.Type, len(tCols))
	for i, c := range tCols {
		names[i], types[i] = c.Name, c.Typ
	}
	bt, err := catalog.New().CreateTable("t", names, types, false)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// tRows returns n rows starting at row from; every key column is NULL
// now and then, and i runs over -3..4, so key 0 exists.
func tRows(from, n int) [][]sqltypes.Value {
	rows := make([][]sqltypes.Value, n)
	for r := range rows {
		x := from + r
		b := sqltypes.NewBool(x%3 == 0)
		i := sqltypes.NewInt(int64(x*7%8 - 3))
		s := sqltypes.NewString(fmt.Sprintf("s%d", x*5%6))
		d := sqltypes.NewDateDays(int64(19000 + x*3%5))
		for k, v := range []*sqltypes.Value{&b, &i, &s, &d} {
			if (x+k)%11 == 0 {
				*v = sqltypes.Null(v.K)
			}
		}
		rows[r] = []sqltypes.Value{b, i, s, d, sqltypes.NewInt(int64(x))}
	}
	return rows
}

func insert(t *testing.T, bt *catalog.BaseTable, rows [][]sqltypes.Value) {
	t.Helper()
	if err := bt.Data.Insert(rows); err != nil {
		t.Fatal(err)
	}
}

// groupBy returns the request for SELECT <keys>, aggs FROM t GROUP BY
// <keys>, keys given as column indexes of t.
func groupBy(t *testing.T, bt *catalog.BaseTable, keys []int, aggs ...plan.AggCall) *request {
	t.Helper()
	agg := &plan.Aggregate{Input: &plan.Scan{Source: bt, Sch: &plan.Schema{Cols: tCols}}, Aggs: aggs}
	set := make([]int, len(keys))
	for j, c := range keys {
		agg.GroupExprs = append(agg.GroupExprs, col(c))
		set[j] = j
	}
	agg.Sets = [][]int{set}
	req := analyze(agg)
	if req == nil {
		t.Fatal("gate rejected a plain GROUP BY")
	}
	return req
}

var (
	sumV   = plan.AggCall{Name: "SUM", Args: []plan.Expr{col(4)}, KeyIndex: -1, Typ: intT}
	countV = plan.AggCall{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT}
	avgV   = plan.AggCall{Name: "AVG", Args: []plan.Expr{col(4)}, KeyIndex: -1, Typ: sqltypes.Type{Kind: sqltypes.KindFloat}}
)

func syncAll(t *testing.T, nd *node, bt *catalog.BaseTable) {
	t.Helper()
	rows, now := bt.Snapshot()
	if err := nd.sync(rows, now, &counters{}); err != nil {
		t.Fatal(err)
	}
}

// keyPos returns the node key position of column c of t.
func keyPos(t *testing.T, nd *node, c int) int {
	t.Helper()
	for k, e := range nd.keys {
		if r, ok := e.(*plan.ColRef); ok && r.Index == c {
			return k
		}
	}
	t.Fatalf("column %d is not a node key", c)
	return -1
}

// scanSelection is the selection by definition: every group, in
// position order, that every term matches.
func scanSelection(nd *node, active []activeTerm) []int32 {
	var sel []int32
	for g := 0; g < nd.nGroups; g++ {
		ok := true
		for _, a := range active {
			ok = ok && a.matches(nd.keyOf(g)[a.key])
		}
		if ok {
			sel = append(sel, int32(g))
		}
	}
	return sel
}

// checkFirstRowOrder holds group positions to first-qualifying-row
// order: the groups are the distinct key tuples of the table's rows,
// in the order each first appears.
func checkFirstRowOrder(t *testing.T, nd *node, bt *catalog.BaseTable, keys []int) {
	t.Helper()
	var want []string
	seen := map[string]bool{}
	kv := make([]sqltypes.Value, len(nd.keys))
	for _, row := range bt.Rows() {
		for _, c := range keys {
			kv[keyPos(t, nd, c)] = row[c]
		}
		if k := sqltypes.RowKey(kv); !seen[k] {
			seen[k] = true
			want = append(want, k)
		}
	}
	var got []string
	for g := 0; g < nd.nGroups; g++ {
		got = append(got, sqltypes.RowKey(nd.keyOf(g)))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups not in first-row order: %d groups, want %d", len(got), len(want))
	}
}

func TestNodeSelectionAgreesWithScan(t *testing.T) {
	keys := []int{0, 1, 2, 3} // b, i, s, d
	probes := map[int][]sqltypes.Value{
		0: {sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null(sqltypes.KindBool)},
		1: {sqltypes.NewInt(0), sqltypes.NewInt(2), sqltypes.NewInt(99), sqltypes.Null(sqltypes.KindInt),
			sqltypes.NewFloat(3), sqltypes.NewFloat(3.5), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(math.NaN())},
		2: {sqltypes.NewString("s1"), sqltypes.NewString("s4"), sqltypes.NewString("nope"), sqltypes.Null(sqltypes.KindString)},
		3: {sqltypes.NewDateDays(19000), sqltypes.NewDateDays(19004), sqltypes.NewDateDays(1), sqltypes.Null(sqltypes.KindDate)},
	}
	bt := newTable(t)
	insert(t, bt, tRows(0, 150))
	nd := newNode(groupBy(t, bt, keys, sumV, countV), defaultMaxGroupsPerNode)

	// check compares the indexed selection with the scan for every probe
	// of every column, as `=` and as IS NOT DISTINCT FROM, alone and
	// paired with a pin on the next column.
	check := func(stage string) {
		t.Helper()
		checkFirstRowOrder(t, nd, bt, keys)
		for c, vals := range probes {
			for _, v := range vals {
				for _, eq := range []bool{true, false} {
					one := []activeTerm{{key: keyPos(t, nd, c), val: v, eq: eq}}
					next := (c + 1) % len(keys)
					two := append(one, activeTerm{key: keyPos(t, nd, next), val: probes[next][0], eq: eq})
					for _, active := range [][]activeTerm{one, two} {
						got, want := nd.selection(active), scanSelection(nd, active)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s %v (eq=%v, %d terms): index selects %v, scan %v",
								stage, tCols[c].Name, v, eq, len(active), got, want)
						}
					}
				}
			}
		}
	}

	syncAll(t, nd, bt)
	check("built")
	for k, ci := range nd.byCol {
		if ci == nil {
			t.Fatalf("key column %d pinned but never indexed", k)
		}
	}

	// The named cases, beyond agreeing with the scan.
	i := keyPos(t, nd, 1)
	count := func(v sqltypes.Value, eq bool) int {
		return len(nd.selection([]activeTerm{{key: i, val: v, eq: eq}}))
	}
	if count(sqltypes.NewFloat(3), true) == 0 || count(sqltypes.NewFloat(3), true) != count(sqltypes.NewInt(3), true) {
		t.Errorf("INT key = 3.0 selects %d groups, = 3 selects %d", count(sqltypes.NewFloat(3), true), count(sqltypes.NewInt(3), true))
	}
	if n := count(sqltypes.NewFloat(3.5), true); n != 0 {
		t.Errorf("INT key = 3.5 selects %d groups", n)
	}
	if n, want := count(sqltypes.NewFloat(math.Copysign(0, -1)), true), count(sqltypes.NewInt(0), true); n == 0 || n != want {
		t.Errorf("INT key = -0.0 selects %d groups, = 0 selects %d", n, want)
	}
	if n := count(sqltypes.Null(sqltypes.KindInt), true); n != 0 {
		t.Errorf("= NULL selects %d groups", n)
	}
	nulls := nd.selection([]activeTerm{{key: i, val: sqltypes.Null(sqltypes.KindInt)}})
	if len(nulls) == 0 {
		t.Error("IS NOT DISTINCT FROM NULL selects no group")
	}
	for _, g := range nulls {
		if !nd.keyOf(int(g))[i].Null {
			t.Errorf("IS NOT DISTINCT FROM NULL selects group %d, key %v", g, nd.keyOf(int(g))[i])
		}
	}

	// An INSERT appends groups, and sync extends the built indexes.
	before := nd.nGroups
	insert(t, bt, tRows(150, 400))
	syncAll(t, nd, bt)
	if nd.nGroups == before {
		t.Fatal("the insert appended no group")
	}
	check("after insert")

	// TRUNCATE clears the node, indexes included; they are rebuilt on
	// the next pin.
	bt.Data.Truncate()
	syncAll(t, nd, bt)
	if nd.nGroups != 0 || len(nd.byKey) != 0 {
		t.Fatalf("truncate left %d groups, %d keys", nd.nGroups, len(nd.byKey))
	}
	for k, ci := range nd.byCol {
		if ci != nil {
			t.Fatalf("truncate kept the index of key column %d", k)
		}
	}
	insert(t, bt, tRows(1000, 120))
	syncAll(t, nd, bt)
	check("after truncate and refill")

	// Crossing the group cap disables the node and releases it.
	nd.maxGroups = nd.nGroups
	insert(t, bt, tRows(5000, 300))
	syncAll(t, nd, bt)
	if !nd.disabled || nd.nGroups != 0 || nd.byKey != nil || nd.byCol[i] != nil {
		t.Fatalf("group cap: disabled=%v groups=%d", nd.disabled, nd.nGroups)
	}
}

// TestNodeFoldDoesNotAllocate: folding an INSERT delta into existing
// groups reuses the node's scratch key, encoding and argument buffers,
// whatever the node's aggregates.
func TestNodeFoldDoesNotAllocate(t *testing.T) {
	bt := newTable(t)
	insert(t, bt, tRows(0, 1000))
	rows, now := bt.Snapshot()
	c := &counters{}
	// Refold the second half: every row lands in an existing group.
	half := now
	half.Rows /= 2
	for _, nd := range []*node{
		newNode(groupBy(t, bt, []int{1, 2}, sumV, countV), defaultMaxGroupsPerNode),
		newNode(groupBy(t, bt, []int{1, 2}, avgV), defaultMaxGroupsPerNode),
	} {
		if err := nd.sync(rows, now, c); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			nd.seen = half
			if err := nd.sync(rows, now, c); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("sync allocates %.0f objects folding %d rows into %s", n, now.Rows-half.Rows, nd.aggs[0].sig)
		}
	}
}

// TestGateKeepsKeysInAMask: a request with more than 64 node keys or
// group expressions goes to the direct path.
func TestGateKeepsKeysInAMask(t *testing.T) {
	bt := newTable(t)
	for _, tc := range []struct {
		keys int
		ok   bool
	}{{64, true}, {65, false}} {
		agg := &plan.Aggregate{Input: &plan.Scan{Source: bt, Sch: &plan.Schema{Cols: tCols}}, Aggs: []plan.AggCall{countV}}
		set := make([]int, tc.keys)
		for j := range set {
			agg.GroupExprs = append(agg.GroupExprs, &plan.Call{Name: "+", Typ: intT,
				Args: []plan.Expr{col(1), &plan.Lit{Val: sqltypes.NewInt(int64(j))}}})
			set[j] = j
		}
		agg.Sets = [][]int{set}
		req := analyze(agg)
		if (req != nil) != tc.ok {
			t.Fatalf("%d keys: gate admitted=%v, want %v", tc.keys, req != nil, tc.ok)
		}
		if req != nil && len(req.keys) != tc.keys {
			t.Fatalf("%d group expressions made %d node keys", tc.keys, len(req.keys))
		}
	}
}
