package storage

import (
	"testing"
	"unsafe"

	"github.com/measures-sql/msql/internal/sqltypes"
)

func newT(t *testing.T) *Table {
	t.Helper()
	return NewTable("t",
		[]string{"a", "b", "d"},
		[]sqltypes.Type{{Kind: sqltypes.KindInt}, {Kind: sqltypes.KindFloat}, {Kind: sqltypes.KindDate}})
}

func TestInsertAndScan(t *testing.T) {
	tbl := newT(t)
	err := tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewString("2024-01-01")},
		{sqltypes.Null(sqltypes.KindUnknown), sqltypes.NewFloat(1.5), sqltypes.NewDate(2024, 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 2 || tbl.State().Rows != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	// INT 2 coerced to FLOAT in column b; string coerced to DATE.
	if rows[0][1].K != sqltypes.KindFloat || rows[0][1].F() != 2 {
		t.Errorf("coercion to float failed: %v", rows[0][1])
	}
	if rows[0][2].K != sqltypes.KindDate || rows[0][2].String() != "2024-01-01" {
		t.Errorf("coercion to date failed: %v", rows[0][2])
	}
	if !rows[1][0].Null || rows[1][0].K != sqltypes.KindInt {
		t.Errorf("null retyping failed: %v", rows[1][0])
	}
}

func TestInsertErrors(t *testing.T) {
	tbl := newT(t)
	// Wrong arity.
	if err := tbl.Insert([][]sqltypes.Value{{sqltypes.NewInt(1)}}); err == nil {
		t.Error("short row should fail")
	}
	// Wrong type (string into int).
	err := tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewString("x"), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)},
	})
	if err == nil {
		t.Error("string into INTEGER should fail")
	}
	// Non-integral float into int.
	err = tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewFloat(1.5), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)},
	})
	if err == nil {
		t.Error("1.5 into INTEGER should fail")
	}
	// All-or-nothing: nothing inserted by the failed batches.
	if tbl.State().Rows != 0 {
		t.Errorf("failed inserts must not leave rows, got %d", tbl.State().Rows)
	}
	// Integral float is fine.
	err = tbl.Insert([][]sqltypes.Value{
		{sqltypes.NewFloat(2), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)},
	})
	if err != nil || tbl.Rows()[0][0].I != 2 {
		t.Errorf("integral float insert: %v", err)
	}
}

func TestSnapshotStability(t *testing.T) {
	tbl := newT(t)
	seed := [][]sqltypes.Value{{sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewDate(2024, 1, 1)}}
	if err := tbl.Insert(seed); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Rows()
	if err := tbl.Insert(seed); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Errorf("snapshot grew after later insert: %d", len(snap))
	}
	tbl.Truncate()
	if tbl.State().Rows != 0 {
		t.Error("truncate failed")
	}
	if len(snap) != 1 {
		t.Error("snapshot must survive truncate")
	}
}

// TestStringColumnsAreInterned: equal VARCHAR values of one column share
// one backing string however many rows (and insert batches) repeat them;
// the caller's rows are not touched, NULLs pass through, and Truncate
// drops the dictionary with the rows.
func TestStringColumnsAreInterned(t *testing.T) {
	tbl := NewTable("t", []string{"name", "n"},
		[]sqltypes.Type{{Kind: sqltypes.KindString}, {Kind: sqltypes.KindInt}})
	fresh := func(s string) sqltypes.Value { return sqltypes.NewString(string([]byte(s))) }
	in := [][]sqltypes.Value{{fresh("prod001"), sqltypes.NewInt(1)}, {fresh("prod001"), sqltypes.NewInt(2)},
		{sqltypes.Null(sqltypes.KindString), sqltypes.NewInt(3)}}
	if err := tbl.Insert(in); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([][]sqltypes.Value{{fresh("prod001"), sqltypes.NewInt(4)}, {fresh("prod002"), sqltypes.NewInt(5)}}); err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	data := func(i int) *byte { return unsafe.StringData(rows[i][0].S) }
	if data(0) != data(1) || data(0) != data(3) {
		t.Error("equal values of a VARCHAR column must share one backing string")
	}
	if rows[4][0].S != "prod002" || !rows[2][0].Null {
		t.Errorf("values changed: %v", rows)
	}
	if unsafe.StringData(in[1][0].S) == data(0) {
		t.Error("the caller's rows must not be rewritten")
	}
	tbl.Truncate()
	if len(tbl.dict[0]) != 0 {
		t.Error("Truncate must drop the dictionary")
	}
}
