package engine

import (
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/parser"
)

// TestInsertStatementAllocations holds running a parsed 500-row INSERT
// (the datagen Orders table, seed 1) to one allocation per row, the
// stored row, and a count per statement: the evaluated rows are carved
// from one block, a date literal is read without the time package, and
// a string already in the column's dictionary is stored as the
// dictionary's.
func TestInsertStatementAllocations(t *testing.T) {
	const rows = 500
	cfg := datagen.DefaultConfig()
	cfg.Orders = rows
	sql := datagen.Generate(cfg).InsertSQL()
	stmt, err := parser.ParseStatement(sql[strings.Index(sql, "INSERT INTO Orders"):])
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if _, err := s.Execute(datagen.SetupSQL); err != nil {
		t.Fatal(err)
	}
	perInsert := testing.AllocsPerRun(10, func() {
		if _, err := s.ExecStatement(stmt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a %d-row INSERT makes %.0f allocations", rows, perInsert)
	if perInsert > rows+30 {
		t.Fatalf("a %d-row INSERT makes %.0f allocations, want <= %d (one per row and 30)", rows, perInsert, rows+30)
	}
}
