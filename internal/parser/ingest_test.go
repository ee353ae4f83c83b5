package parser

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/datagen"
)

// ordersInsert is the datagen Orders table of 500 rows (seed 1) as one
// INSERT statement.
func ordersInsert(t testing.TB) string {
	cfg := datagen.DefaultConfig()
	cfg.Orders = 500
	sql := datagen.Generate(cfg).InsertSQL()
	i := strings.Index(sql, "INSERT INTO Orders")
	if i < 0 || strings.Count(sql[i:], "INSERT") != 1 {
		t.Fatalf("datagen no longer renders 500 orders as one INSERT")
	}
	return sql[i:]
}

// allocsAndBytes is testing.AllocsPerRun with the bytes too: the mean
// number of heap objects and bytes one call of f allocates.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestParseValuesAllocations holds parsing a VALUES row to its AST: one
// row slice and one node per item, no tokens, no copies of the text.
func TestParseValuesAllocations(t *testing.T) {
	sql := ordersInsert(t)
	const rows = 500
	allocs, bytes := allocsAndBytes(10, func() {
		if _, err := ParseStatements(sql); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d rows: %.0f allocations, %.0f B", rows, allocs, bytes)
	if perRow := allocs / rows; perRow > 10 {
		t.Errorf("parsing a %d-row INSERT makes %.0f allocations (%.2f per row), want <= 10 per row", rows, allocs, perRow)
	}
	if perRow := bytes / rows; perRow > 900 {
		t.Errorf("parsing a %d-row INSERT allocates %.0f B (%.0f per row), want <= 900 per row", rows, bytes, perRow)
	}
}

// valuesItem parses item as an expression, and as the only value of an
// INSERT at the same offset (the expression's text is blanked before
// it), so that both ASTs carry the same positions.
func valuesItem(item string) (viaInsert, viaExpr ast.Expr, err error) {
	const head = "INSERT INTO t VALUES ("
	e, err := ParseExpr(strings.Repeat(" ", len(head)) + item)
	if err != nil {
		return nil, nil, err
	}
	stmt, err := ParseStatement(head + item + ")")
	if err != nil {
		return nil, e, err
	}
	ins := stmt.(*ast.Insert)
	if len(ins.Rows) != 1 || len(ins.Rows[0]) != 1 {
		return nil, e, fmt.Errorf("the INSERT holds %d rows", len(ins.Rows))
	}
	return ins.Rows[0][0], e, nil
}

// TestValuesItemIsParseExpr holds a VALUES item to the AST ParseExpr
// builds for it: literals alone and under an operator, positions too.
func TestValuesItemIsParseExpr(t *testing.T) {
	for _, item := range []string{
		"0", "42", "-7", "9223372036854775807", "9223372036854775808",
		"1.5", ".5", "1.5e3", "1E-2",
		"''", "'abc'", "'it''s'", "''''", "'a''b''c'",
		"DATE '2024-01-02'", "DATE '2024/01/02'", "DATE 'not a date'",
		"NULL", "TRUE", "FALSE", "null", "true",
		"1 + 2", "1 * 2 + 3", "'a' || 'b'", "DATE '2024-01-02' + 1",
		"NULL IS NULL", "TRUE AND FALSE", "1 = 1", "2 BETWEEN 1 AND 3",
		"1 IN (1, 2)", "'a' LIKE 'a%'", "(1)", "x", "f(1)", "?", "$1",
	} {
		got, want, err := valuesItem(item)
		if err != nil {
			t.Errorf("%s: does not parse as an expression and a VALUES item: %v", item, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: VALUES item parsed as %#v, ParseExpr as %#v", item, got, want)
		}
	}
}
