package engine

// What the engine owes the expression compiler: a cached plan keeps its
// compiled expressions across bindings, and INSERT literals are answered
// without planning a query each.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// One prepared plan executed with two bindings gives two different
// answers — the compiled closures read the parameter at call time — and
// the second execution compiles nothing. The bindings differ, so the
// entry's result memo cannot answer the second one.
func TestCachedPlanRebindsParams(t *testing.T) {
	s := newPrepSession(t)
	ps, err := s.Prepare("SELECT a * ?, b FROM t WHERE a >= ? ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	exec := func(mul, min int64) *Result {
		t.Helper()
		r, err := ps.Execute(sqltypes.NewInt(mul), sqltypes.NewInt(min))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := exec(10, 2)
	if len(s.plans.items) != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", len(s.plans.items))
	}
	var entry *cachedPlan
	for _, el := range s.plans.items {
		entry = el.Value.(*cachedPlan)
	}
	compiled := entry.pipe.Programs()
	if compiled == 0 {
		t.Fatal("first execution compiled nothing into the entry's pipeline")
	}
	second := exec(100, 3)
	if got := fmt.Sprint(first.Rows, second.Rows); got != "[[20 y] [30 z]] [[300 z]]" {
		t.Fatalf("rows = %s", got)
	}
	if pc := s.PlanCacheCountersSnapshot(); pc.Hits != 1 || pc.MemoHits != 0 {
		t.Fatalf("second execution should hit the plan cache and miss the result memo: %+v", pc)
	}
	if n := entry.pipe.Programs(); n != compiled {
		t.Fatalf("second execution compiled %d more programs", n-compiled)
	}
}

// A 200-row, 5-column literal INSERT evaluates its 1000 values without
// a binder, a plan and an executor run each: what it allocates is the
// rows, about three objects per row. One micro-query per literal
// allocated 32 623 objects for this statement; the bound is one per value.
func TestInsertLiteralsDoNotPlan(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO lits VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, -%d.5, 'name%d', DATE '2024-01-%02d', NULL)", i, i, i, i%28+1)
	}
	stmt, err := parser.ParseStatement(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if _, err := s.Execute("CREATE TABLE lits (i INT, f DOUBLE, s STRING, d DATE, n INT)"); err != nil {
		t.Fatal(err)
	}
	perInsert := testing.AllocsPerRun(5, func() {
		if _, err := s.ExecStatement(stmt); err != nil {
			t.Fatal(err)
		}
	})
	if perInsert > 1000 {
		t.Fatalf("a 200x5 literal INSERT allocates %.0f objects, want <= 1000", perInsert)
	}
	r, err := s.Query("SELECT COUNT(*), SUM(i), MIN(f), MAX(s), MIN(d), COUNT(n) FROM lits WHERE i = 199")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(r.Rows); got != "[[6 1194 -199.5 name199 2024-01-04 0]]" {
		t.Fatalf("inserted values read back as %s", got)
	}
}
