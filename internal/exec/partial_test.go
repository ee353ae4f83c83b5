package exec

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"testing"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// The scatter-gather pair over rows (a, b, seq): one Aggregate grouping
// by b, which a shard folds with MIN(seq) appended (PartialAggregate
// with a sequence column) and a coordinator merges into.
// ANY_VALUE(seq) takes the first row's value only if the pieces merge in
// sequence order.
var mergeCalls = []plan.AggCall{
	{Name: "SUM", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
	{Name: "MAX", Args: []plan.Expr{col(0, "a")}, KeyIndex: -1, Typ: intT()},
	{Name: "ANY_VALUE", Args: []plan.Expr{col(2, "seq")}, KeyIndex: -1, Typ: intT()},
	{Name: "COUNT", Star: true, KeyIndex: -1, Typ: intT()},
}

func mergeAgg(in plan.Node, calls []plan.AggCall) *plan.Aggregate {
	sch := &plan.Schema{Cols: []plan.Col{{Name: "b", Typ: intT()}}}
	for _, c := range calls {
		sch.Cols = append(sch.Cols, plan.Col{Name: c.Name, Typ: c.Typ})
	}
	return &plan.Aggregate{Input: in, GroupExprs: []plan.Expr{col(1, "b")}, Sets: [][]int{{0}}, Aggs: calls, Sch: sch}
}

func abSeqScan(rows []Row) *plan.Scan {
	src := &testSource{name: "t", cols: []string{"a", "b", "seq"}, types: []sqltypes.Type{intT(), intT(), intT()}, rows: rows}
	sch := &plan.Schema{}
	for i, c := range src.cols {
		sch.Cols = append(sch.Cols, plan.Col{Name: c, Typ: src.types[i]})
	}
	return &plan.Scan{Source: src, Sch: sch}
}

// shardFrames deals rows 0..n-1 (a = i, b = group(i), seq = i) to two
// shards by onFirst and returns the frames the shards send.
func shardFrames(t testing.TB, n int, group func(int) int64, onFirst func(int) bool) (all []Row, frames [][]byte) {
	t.Helper()
	shards := make([][]Row, 2)
	for i := 0; i < n; i++ {
		row := Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(group(i)), sqltypes.NewInt(int64(i))}
		if i%5 == 0 {
			row[0] = sqltypes.Null(sqltypes.KindInt)
		}
		all = append(all, row)
		s := 1
		if onFirst(i) {
			s = 0
		}
		shards[s] = append(shards[s], row)
	}
	for _, rows := range shards {
		agg := mergeAgg(abSeqScan(rows), mergeCalls)
		res, err := PartialAggregate(context.Background(), agg, "seq", 1, len(mergeCalls), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.Aggs) != len(mergeCalls) || len(agg.Sch.Cols) != len(mergeCalls)+1 {
			t.Fatalf("the shard's fold wrote its plan: %d calls, %d columns", len(agg.Aggs), len(agg.Sch.Cols))
		}
		frame, err := AppendFrame(nil, res.Groups)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return all, frames
}

// Merging two shards' frames answers what one fold over every row
// answers, group order and ANY_VALUE's first row included: with
// groups whose first row is on either shard, groups on one shard only,
// and a keyless Aggregate over no rows.
func TestMergePartialsMatchesOneFold(t *testing.T) {
	for name, tc := range map[string]struct {
		n       int
		group   func(int) int64
		onFirst func(int) bool
	}{
		"interleaved":          {200, func(i int) int64 { return int64(i*7) % 13 }, func(i int) bool { return i%3 == 1 }},
		"first rows on second": {60, func(i int) int64 { return int64(i % 4) }, func(i int) bool { return i >= 4 }},
		"disjoint":             {50, func(i int) int64 { return int64(i % 2) }, func(i int) bool { return i%2 == 0 }},
		"one empty shard":      {30, func(i int) int64 { return int64(i % 3) }, func(int) bool { return true }},
		"beyond one block":     {3000, func(i int) int64 { return int64(i / 2) }, func(i int) bool { return i%2 == 1 }},
	} {
		t.Run(name, func(t *testing.T) {
			all, frames := shardFrames(t, tc.n, tc.group, tc.onFirst)
			local := mergeAgg(abSeqScan(all), mergeCalls)
			want, err := Run(local, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MergePartials(context.Background(), local, frames, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("merged %v\nwant   %v", got, want)
			}
		})
	}
	t.Run("keyless over no rows", func(t *testing.T) {
		res, err := PartialAggregate(context.Background(), aggOver(abSeqScan(nil), mergeCalls...), "seq", 0, 4, nil)
		if err != nil || len(res.Groups) != 0 {
			t.Fatalf("%d groups from no rows (%v)", len(res.Groups), err)
		}
		frame, _ := AppendFrame(nil, res.Groups)
		got, err := MergePartials(context.Background(), aggOver(abSeqScan(nil), mergeCalls...), [][]byte{frame, frame}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(got), "[[NULL NULL NULL 0]]"; g != w {
			t.Fatalf("keyless merge of empty frames = %s, want %s", g, w)
		}
	})
}

// Merging k groups from two frames allocates per block: the table's
// blocks, the map's growth and the output, not a state or a key per
// group or per piece. Eight times the groups cost fewer than one
// allocation more per 32 groups.
func TestMergePartialsAllocatesPerBlockNotPerGroup(t *testing.T) {
	sizes := []int{1024, 8192}
	var allocs []float64
	for _, k := range sizes {
		all, frames := shardFrames(t, 2*k, func(i int) int64 { return int64(i / 2) }, func(i int) bool { return i%2 == 0 })
		local := mergeAgg(abSeqScan(all), mergeCalls)
		settings := DefaultSettings()
		rows, err := MergePartials(context.Background(), local, frames, settings)
		if err != nil || len(rows) != k {
			t.Fatalf("%d groups, err %v", len(rows), err)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := MergePartials(context.Background(), local, frames, settings); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if grew, limit := allocs[1]-allocs[0], float64(sizes[1]-sizes[0])/32; grew > limit {
		t.Fatalf("merging %d groups allocates %.0f objects and %d groups %.0f: %.0f more, want <= %.0f",
			sizes[0], allocs[0], sizes[1], allocs[1], grew, limit)
	}
}

// FuzzDecodePartialFrame: any bytes merge or fail with an error — never
// a panic — and a claimed count beyond the frame is refused before
// anything is allocated for it.
func FuzzDecodePartialFrame(f *testing.F) {
	for _, n := range []int{0, 1, 7, 40} {
		_, frames := shardFrames(f, n, func(i int) int64 { return int64(i % 5) }, func(i int) bool { return i%3 == 0 })
		for _, fr := range frames {
			f.Add(fr)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})                         // a group count far beyond the frame
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0x0f, 0x02, 0x02, 0x02, 0x02}) // a key tuple count far beyond it
	f.Add([]byte{0x01, 0x01, 0x04, 0xff, 0xff, 0x7f, 0x01, 0x01, 0x01}) // a VARCHAR length far beyond it
	f.Add([]byte{0x01, 0x01, 0x02, 0x02, 0x63, 0x01, 0x02, 0x01, 0x02}) // an unknown state tag
	env, err := newAggEnv(mergeAgg(abSeqScan(nil), mergeCalls))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		m := env.newMerger()
		err := m.merge(data)
		stdruntime.ReadMemStats(&after)
		// The table's blocks grow with the groups made, and a group takes
		// at least a byte per state and key count.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+1024*uint64(len(data)) {
			t.Fatalf("a %d-byte frame allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		if _, err := env.emit(m.tables, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
}
