package msql_test

// End-to-end durability: everything a session does through SQL —
// tables, measure views, inserts with every value kind — survives
// close/reopen of the data directory, checkpoints bound replay, and
// the recovered session answers measure queries identically.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/measures-sql/msql/internal/wal"
	"github.com/measures-sql/msql/msql"
)

func reopen(t *testing.T, dir string, db *msql.DB, opts ...msql.DirOption) *msql.DB {
	t.Helper()
	if db != nil {
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	db2, err := msql.OpenDir(dir, opts...)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	return db2
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := msql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("OpenDir returned a non-durable DB")
	}
	db.MustExec(`CREATE TABLE Orders (prodName VARCHAR, orderDate DATE, revenue INTEGER, weight DOUBLE, rush BOOLEAN)`)
	db.MustExec(`INSERT INTO Orders VALUES
		('Happy', DATE '2024-01-10', 6, 1.5, TRUE),
		('Acme',  DATE '2024-02-20', 5, NULL, FALSE),
		('Happy', DATE '2024-03-05', 4, 0.25, TRUE)`)
	db.MustExec(`CREATE VIEW EO AS
		SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders`)
	const q = `SELECT prodName, AGGREGATE(sumRevenue) AS rev,
		AGGREGATE(sumRevenue) AT (ALL) AS total
		FROM EO GROUP BY prodName ORDER BY prodName`
	want := db.MustQuery(q)

	db = reopen(t, dir, db)
	defer db.Close()
	got, err := db.Query(q)
	if err != nil {
		t.Fatalf("measure query after recovery: %v", err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("recovered measure query diverged:\nbefore %v\nafter  %v", want.Rows, got.Rows)
	}

	// The recovered session keeps accepting durable writes.
	db.MustExec(`INSERT INTO Orders VALUES ('Whiz', DATE '2024-04-01', 9, 2.0, FALSE)`)
	db = reopen(t, dir, db)
	defer db.Close()
	res := db.MustQuery(`SELECT COUNT(*) FROM Orders`)
	if res.Rows[0][0].I != 4 {
		t.Fatalf("row count after second recovery = %v, want 4", res.Rows[0][0])
	}
}

func TestDurableCheckpointAndDDL(t *testing.T) {
	dir := t.TempDir()
	db, err := msql.OpenDir(dir, msql.WithSyncPolicy(msql.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	db.MustExec(`CREATE TABLE doomed (b VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if st := db.WALStats(); st.Checkpoints != 1 {
		t.Fatalf("checkpoint count = %d", st.Checkpoints)
	}
	// Post-checkpoint tail: more rows, a drop, a view replacement.
	db.MustExec(`INSERT INTO t VALUES (3)`)
	db.MustExec(`DROP TABLE doomed`)
	db.MustExec(`CREATE VIEW v AS SELECT *, SUM(a) AS MEASURE m FROM t`)
	db.MustExec(`CREATE OR REPLACE VIEW v AS SELECT *, SUM(a)*2 AS MEASURE m FROM t`)

	db = reopen(t, dir, db)
	defer db.Close()
	tables, views := db.Tables()
	if len(tables) != 1 || len(views) != 1 {
		t.Fatalf("recovered objects: tables=%v views=%v", tables, views)
	}
	res := db.MustQuery(`SELECT AGGREGATE(m) FROM v`)
	if res.Rows[0][0].I != 12 { // (1+2+3)*2: replaced view + post-checkpoint row
		t.Fatalf("measure over recovered view = %v, want 12", res.Rows[0][0])
	}
	st := db.WALStats()
	if st.RecoveredRecords != 4 {
		t.Fatalf("replayed %d records, want the 4 post-checkpoint ones", st.RecoveredRecords)
	}

	// Every record type replays through the engine: a TRUNCATE then an
	// INSERT, a view replaced and one dropped, and a table created over a
	// view's name. The reopened session answers as before the close.
	tail := []string{
		`TRUNCATE TABLE t`,
		`INSERT INTO t VALUES (10), (20)`,
		`CREATE OR REPLACE VIEW v AS SELECT *, SUM(a)*3 AS MEASURE m FROM t`,
		`CREATE VIEW gone AS SELECT a FROM t`,
		`DROP VIEW gone`,
		`CREATE VIEW shadow AS SELECT a FROM t`,
		`CREATE OR REPLACE TABLE shadow (s VARCHAR)`,
		`INSERT INTO shadow VALUES ('x'), ('y')`,
	}
	for _, sql := range tail {
		db.MustExec(sql)
	}
	queries := []string{
		`SELECT AGGREGATE(m) AS m FROM v`,
		`SELECT a FROM t ORDER BY a`,
		`SELECT s FROM shadow ORDER BY s`,
	}
	answers := func(db *msql.DB) string {
		tables, views := db.Tables()
		slices.Sort(tables)
		slices.Sort(views)
		out := fmt.Sprintf("version %d tables %v views %v\n", db.CatalogVersion(), tables, views)
		for _, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			out += fmt.Sprintf("%s: %v\n", q, res.Rows)
		}
		return out
	}
	want := answers(db)
	db = reopen(t, dir, db)
	defer db.Close()
	if got := answers(db); got != want {
		t.Fatalf("recovered session answers differently:\nbefore the close\n%safter\n%s", want, got)
	}
	if st := db.WALStats(); st.RecoveredRecords != int64(4+len(tail)) {
		t.Fatalf("replayed %d records, want %d", st.RecoveredRecords, 4+len(tail))
	}
}

func TestDurableObservability(t *testing.T) {
	dir := t.TempDir()
	db, err := msql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	db.MustExec(`INSERT INTO t VALUES (2)`)

	st := db.WALStats()
	if st.Appends != 3 || st.DurableSeq != 3 || st.Fsyncs == 0 {
		t.Fatalf("wal stats: %+v", st)
	}
	snap := db.Metrics()
	if snap.Storage == nil || snap.Storage.WALAppends != 3 || snap.Storage.SyncPolicy != "always" {
		t.Fatalf("metrics storage section: %+v", snap.Storage)
	}
	prom := snap.Prometheus()
	for _, series := range []string{"msql_wal_appends_total 3", "msql_wal_fsyncs_total", "msql_recovery_seconds"} {
		if !strings.Contains(prom, series) {
			t.Fatalf("prometheus output missing %q", series)
		}
	}
	res := db.MustQuery(`SELECT sync_policy, wal_appends, wal_durable_seq FROM msql_stats.storage`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "always" || res.Rows[0][1].I != 3 || res.Rows[0][2].I != 3 {
		t.Fatalf("msql_stats.storage = %v", res.Rows)
	}

	// In-memory sessions expose an empty storage relation and no section.
	mem := msql.Open()
	if rows := mem.MustQuery(`SELECT * FROM msql_stats.storage`).Rows; len(rows) != 0 {
		t.Fatalf("in-memory msql_stats.storage = %v, want empty", rows)
	}
	if mem.Metrics().Storage != nil {
		t.Fatal("in-memory metrics carry a storage section")
	}
}

func TestDurableSyncPolicies(t *testing.T) {
	for _, policy := range []string{"always", "interval", "off"} {
		t.Run(policy, func(t *testing.T) {
			p, err := msql.ParseSyncPolicy(policy)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			db, err := msql.OpenDir(dir, msql.WithSyncPolicy(p))
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (a INTEGER)`)
			db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
			if err := db.Sync(); err != nil {
				t.Fatalf("explicit sync under %s: %v", policy, err)
			}
			db = reopen(t, dir, db, msql.WithSyncPolicy(p))
			defer db.Close()
			if n := db.MustQuery(`SELECT COUNT(*) FROM t`).Rows[0][0].I; n != 3 {
				t.Fatalf("recovered %d rows under %s", n, policy)
			}
		})
	}
}

// TestDurableSnapshotOnlyRecovery: under every sync policy a reopen
// replays the whole log tail, and after a checkpoint it replays no
// record at all — recovery is a snapshot load — with every row intact.
func TestDurableSnapshotOnlyRecovery(t *testing.T) {
	const rows = 50
	for _, policy := range []string{"always", "interval", "off"} {
		t.Run(policy, func(t *testing.T) {
			p, err := msql.ParseSyncPolicy(policy)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			db, err := msql.OpenDir(dir, msql.WithSyncPolicy(p))
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (a INTEGER, b VARCHAR)`)
			for i := 0; i < rows; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row')`, i))
			}
			check := func(wantReplayed int64) {
				t.Helper()
				if rr := db.WALStats().RecoveredRecords; rr != wantReplayed {
					t.Fatalf("recovery replayed %d records, want %d", rr, wantReplayed)
				}
				if n := db.MustQuery(`SELECT COUNT(*) FROM t`).Rows[0][0].I; n != rows {
					t.Fatalf("recovered %d rows, want %d", n, rows)
				}
			}
			db = reopen(t, dir, db, msql.WithSyncPolicy(p))
			check(rows + 1) // CREATE TABLE + one record per INSERT
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			db = reopen(t, dir, db, msql.WithSyncPolicy(p))
			defer db.Close()
			check(0)
		})
	}
}

// TestDurableDDLFailedAppend: DDL whose WAL append fails must be
// reported as failed AND leave the in-memory catalog untouched, so
// reads never observe an object whose creation or drop did not become
// durable, and recovery agrees with what the session answered.
func TestDurableDDLFailedAppend(t *testing.T) {
	dir := t.TempDir()
	db, err := msql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE keep (a INTEGER)`)
	db.MustExec(`INSERT INTO keep VALUES (1)`)

	wal.SetCrashHook(wal.CrashAt(wal.CrashBeforeAppend, 1))
	defer wal.SetCrashHook(nil)
	if err := db.Exec(`CREATE TABLE ghost (a INTEGER)`); err == nil {
		t.Fatal("CREATE TABLE acknowledged with a failed WAL append")
	}
	// DROP on the (now poisoned) WAL also fails; the table must survive.
	if err := db.Exec(`DROP TABLE keep`); err == nil {
		t.Fatal("DROP acknowledged on a poisoned WAL")
	}
	wal.SetCrashHook(nil)

	tables, _ := db.Tables()
	if len(tables) != 1 || !strings.EqualFold(tables[0], "keep") {
		t.Fatalf("catalog after failed DDL = %v, want [keep] only", tables)
	}
	if n := db.MustQuery(`SELECT COUNT(*) FROM keep`).Rows[0][0].I; n != 1 {
		t.Fatalf("keep lost rows after failed DDL")
	}

	db.Close() // best-effort: the manager is poisoned
	db, err = msql.OpenDir(dir)
	if err != nil {
		t.Fatalf("recovery after failed appends: %v", err)
	}
	defer db.Close()
	tables, _ = db.Tables()
	if len(tables) != 1 || !strings.EqualFold(tables[0], "keep") {
		t.Fatalf("recovered catalog = %v, want [keep] only", tables)
	}
}

// TestDurableConcurrentDDLInsertReplay: INSERTs racing DROP/CREATE on
// the same table through a shared session must never write a WAL that
// fails replay (e.g. an insert record logged after the drop of its
// table). Before the insert path re-resolved its target under the
// mutation lock, this workload could leave the data directory
// permanently unrecoverable.
func TestDurableConcurrentDDLInsertReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := msql.OpenDir(dir, msql.WithSyncPolicy(msql.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	manyRows := "(0)" + strings.Repeat(", (1)", 39)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				// May fail while the table is dropped or replaced: a
				// statement error is fine, an unreplayable log is not.
				// A wide VALUES list keeps the window between the planning
				// lookup and the logging lock open (every row evaluates as
				// a one-off query in between).
				db.Exec(`INSERT INTO t VALUES ` + manyRows)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			// Pace the DDL across the insert phase (on one CPU the whole
			// loop would otherwise run inside a single scheduler quantum
			// and never land inside an insert's lookup-to-log window).
			time.Sleep(200 * time.Microsecond)
			db.Exec(`DROP TABLE t`)
			db.Exec(`CREATE TABLE t (a INTEGER)`)
		}
	}()
	wg.Wait()

	before := int64(-1)
	if res, err := db.Query(`SELECT COUNT(*) FROM t`); err == nil {
		before = res.Rows[0][0].I
	}
	db = reopen(t, dir, db)
	defer db.Close()
	after := int64(-1)
	if res, err := db.Query(`SELECT COUNT(*) FROM t`); err == nil {
		after = res.Rows[0][0].I
	}
	if before != after {
		t.Fatalf("recovered state diverged: %d rows before close, %d after", before, after)
	}
}

// TestDurableWriteAfterClose: mutations fail once the WAL is closed;
// the catalog stays readable.
func TestDurableWriteAfterClose(t *testing.T) {
	dir := t.TempDir()
	db, err := msql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("insert succeeded after Close")
	}
	if n := db.MustQuery(`SELECT COUNT(*) FROM t`).Rows[0][0].I; n != 0 {
		t.Fatalf("read after close: %d rows", n)
	}
}
