package wal

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/sqltypes"
)

// TestRecoverV1DataDir recovers a data directory written by the engine
// before its value codec moved into sqltypes (commit 44205ff): a
// checkpoint snapshot holding table kinds (one column per value kind)
// and view v, then a three-record log tail. Every value — typed NULLs,
// the zero Value, -0.0, -Inf, MinInt64 — must come back exactly.
func TestRecoverV1DataDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapName, logName} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1-datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, dump := mustOpen(t, dir, Options{})
	defer m.Close()
	if ri := m.Recovery(); !ri.FromSnapshot || ri.SnapshotSeq != 3 || ri.Records != 3 || ri.TornTailBytes != 0 {
		t.Fatalf("recovery info: %+v", ri)
	}

	k := func(kind sqltypes.Kind) sqltypes.Type { return sqltypes.Type{Kind: kind} }
	want := &StoreDump{
		Version: 6,
		Tables: []TableDump{
			{
				Name: "kinds", Cols: []string{"b", "i", "f", "s", "d", "u"},
				Types: []sqltypes.Type{k(sqltypes.KindBool), k(sqltypes.KindInt), k(sqltypes.KindFloat),
					k(sqltypes.KindString), k(sqltypes.KindDate), k(sqltypes.KindUnknown)},
				Rows: [][]sqltypes.Value{
					{sqltypes.NewBool(true), sqltypes.NewInt(300), sqltypes.NewFloat(1.5),
						sqltypes.NewString("héllo"), sqltypes.NewDate(2024, time.February, 29), {}},
					{sqltypes.Null(sqltypes.KindBool), sqltypes.Null(sqltypes.KindInt), sqltypes.Null(sqltypes.KindFloat),
						sqltypes.Null(sqltypes.KindString), sqltypes.Null(sqltypes.KindDate), sqltypes.Null(sqltypes.KindUnknown)},
					{sqltypes.NewBool(false), sqltypes.NewInt(math.MinInt64), sqltypes.NewFloat(math.Copysign(0, -1)),
						sqltypes.NewString(""), sqltypes.NewDate(1969, time.December, 31), sqltypes.Null(sqltypes.KindUnknown)},
					{sqltypes.NewBool(true), sqltypes.NewInt(-1), sqltypes.NewFloat(math.Inf(-1)),
						sqltypes.NewString("x'y"), sqltypes.NewDate(1970, time.January, 1), {}},
				},
			},
			{
				Name: "other", Cols: []string{"a"}, Types: []sqltypes.Type{k(sqltypes.KindInt)},
				Rows: [][]sqltypes.Value{{sqltypes.NewInt(7)}, {sqltypes.Null(sqltypes.KindInt)}},
			},
		},
		Views: []ViewDump{{Name: "v", SQL: "SELECT *, SUM(i) AS MEASURE total FROM kinds"}},
	}
	if !reflect.DeepEqual(dump, want) {
		t.Fatalf("recovered store differs:\n got %+v\nwant %+v", dump, want)
	}
}
