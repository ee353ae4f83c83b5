package rollup_test

// Maintenance tests for the rollup lattice, driven through the engine:
// how an INSERT delta reaches an exactly-mergeable and an
// order-sensitive node, and crash recovery rebuilding the lattice from
// the recovered store. What makes a node stale (TRUNCATE, a refill, a
// replaced table) is msql.TestStaleness's.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/wal"
)

func newRollupSession(t *testing.T) *engine.Session {
	t.Helper()
	s := engine.New()
	s.SetRollups(true)
	mustExec(t, s, `CREATE TABLE Sales (region VARCHAR, amount INTEGER)`)
	mustExec(t, s, `INSERT INTO Sales VALUES ('east', 10), ('west', 20), ('east', 30)`)
	return s
}

func mustExec(t *testing.T, s *engine.Session, sql string) []*engine.Result {
	t.Helper()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// queryStrings runs one query and renders its rows "a|b" per row.
func queryStrings(t *testing.T, s *engine.Session, sql string) []string {
	t.Helper()
	res := mustExec(t, s, sql)
	rows := res[len(res)-1].Rows
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// TestDirtyMarkingOnOrderSensitiveAggregates: AVG over DOUBLE does not
// merge exactly, so an INSERT delta must not fold into it in place — the
// next query marks the touched groups dirty and rebuilds them, and only
// them, from base rows. AVG over INTEGER sums exactly and absorbs the
// delta in place.
func TestDirtyMarkingOnOrderSensitiveAggregates(t *testing.T) {
	s := newRollupSession(t)
	q := `SELECT region, AVG(amount * 1.0) FROM Sales GROUP BY region`
	queryStrings(t, s, q)
	st := s.RollupStats()
	if st.Hits == 0 {
		t.Fatalf("AVG query missed the lattice entirely: %+v", st)
	}
	if st.DirtyGroups != 0 {
		t.Fatalf("freshly built node has %d dirty groups", st.DirtyGroups)
	}
	mustExec(t, s, `INSERT INTO Sales VALUES ('east', 50)`)
	got := queryStrings(t, s, q)
	want := []string{"east|30.0", "west|20.0"} // (10+30+50)/3, 20/1
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("post-insert AVG rows = %v, want %v", got, want)
		}
	}
	st = s.RollupStats()
	if st.DirtyGroups != 0 {
		t.Fatalf("%d dirty groups survived the rebuilding query", st.DirtyGroups)
	}
	if st.IncrementalRows != 0 {
		t.Fatalf("order-sensitive node absorbed %d rows in place", st.IncrementalRows)
	}
	// The first build rebuilt both groups, the delta only the one it
	// touched.
	if st.Rebuilds != 3 {
		t.Fatalf("rebuilds = %d, want 2 (build) + 1 (east): %+v", st.Rebuilds, st)
	}

	s = newRollupSession(t)
	q = `SELECT region, AVG(amount) FROM Sales GROUP BY region`
	queryStrings(t, s, q)
	mustExec(t, s, `INSERT INTO Sales VALUES ('east', 50)`)
	if got := queryStrings(t, s, q); len(got) != 2 || got[0] != "east|30.0" || got[1] != "west|20.0" {
		t.Fatalf("post-insert integer AVG rows = %v", got)
	}
	// 3 rows at the build, 1 in the delta; nothing dirty-marked.
	if st := s.RollupStats(); st.IncrementalRows != 4 || st.Rebuilds != 0 || st.DirtyGroups != 0 {
		t.Fatalf("integer AVG did not absorb the delta in place: %+v", st)
	}
}

// TestExactMergeableIncrementalMaintenance: SUM/COUNT over integers
// fold INSERT deltas into their states in place — no dirty groups, no
// rebuilds, and the answer reflects the delta immediately.
func TestExactMergeableIncrementalMaintenance(t *testing.T) {
	s := newRollupSession(t)
	q := `SELECT region, SUM(amount), COUNT(*) FROM Sales GROUP BY region`
	queryStrings(t, s, q)
	mustExec(t, s, `INSERT INTO Sales VALUES ('west', 5), ('north', 7)`)
	got := queryStrings(t, s, q)
	want := []string{"east|40|2", "west|25|2", "north|7|1"}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
	// 3 rows at the build, 2 in the delta; nothing dirty-marked.
	if st := s.RollupStats(); st.IncrementalRows != 5 || st.Rebuilds != 0 || st.Builds != 1 {
		t.Fatalf("delta was not folded in place: %+v", st)
	}
}

// TestCrashRecoveryRebuildsLattice: the lattice is derived state and is
// never logged; after a fault-injected crash and recovery, a fresh
// lattice must rebuild from the recovered store and agree with direct
// execution.
func TestCrashRecoveryRebuildsLattice(t *testing.T) {
	dir := t.TempDir()
	s, err := engine.NewDurable(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRollups(true)
	mustExec(t, s, `CREATE TABLE Sales (region VARCHAR, amount INTEGER)`)
	mustExec(t, s, `INSERT INTO Sales VALUES ('east', 10), ('west', 20)`)
	q := `SELECT region, SUM(amount) FROM Sales GROUP BY region`
	pre := queryStrings(t, s, q)
	if s.RollupStats().Hits == 0 {
		t.Fatal("lattice did not answer before the crash")
	}

	// Crash on the next append: the acknowledged state is the two rows
	// above; the failed insert below must not survive recovery.
	wal.SetCrashHook(wal.CrashAt(wal.CrashBeforeAppend, 1))
	if _, err := s.Execute(`INSERT INTO Sales VALUES ('east', 999)`); err == nil {
		t.Fatal("insert succeeded through an armed crash point")
	}
	wal.SetCrashHook(nil)
	s.CloseDurability()

	s2, err := engine.NewDurable(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.CloseDurability()
	s2.SetRollups(true)
	if st := s2.RollupStats(); st.Nodes != 0 || st.Hits != 0 {
		t.Fatalf("recovered session started with lattice state: %+v", st)
	}
	got := queryStrings(t, s2, q)
	if fmt.Sprint(got) != fmt.Sprint(pre) {
		t.Fatalf("recovered lattice answer %v != pre-crash %v", got, pre)
	}
	st := s2.RollupStats()
	if st.Hits == 0 || st.Builds == 0 {
		t.Fatalf("recovered query was not lattice-answered: %+v", st)
	}
	// And the lattice keeps maintaining itself on the recovered store.
	mustExec(t, s2, `INSERT INTO Sales VALUES ('west', 1)`)
	got = queryStrings(t, s2, q)
	want := []string{"east|10", "west|21"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("post-recovery maintenance rows = %v, want %v", got, want)
	}
}
