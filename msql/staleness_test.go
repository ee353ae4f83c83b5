package msql_test

// One notion of stale (DESIGN.md): whatever is derived from a table's
// rows is valid while the table's data state (generation, rows) is the
// one read before it was computed; whatever is derived from definitions
// alone is valid while the catalog's schema counter stands still.
// TestStaleness holds every cached artifact to that rule under every
// kind of event: after the event the artifact's statements must return,
// bit for bit, what a session without caches returns that was built by
// replaying the same history, and the cache counters must have moved
// the way the rule predicts.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// staleRows is the size of Sales: two vectorized batches, the second
// partial, so a column share holds more than one entry per column.
const staleRows = 1500

const (
	tileQuery = `SELECT region, AGGREGATE(total) AS s, COUNT(*) AS n FROM V WHERE amount > ? GROUP BY region ORDER BY region`
	// keyQuery pins a grouping key, which the lattice answers.
	keyQuery = `SELECT region, AGGREGATE(total) AS s, COUNT(*) AS n FROM V WHERE region = ? GROUP BY region`
	viewV1   = `CREATE OR REPLACE VIEW V AS SELECT *, SUM(amount) AS MEASURE total, AVG(price) AS MEASURE mean FROM Sales`
	viewV2   = `CREATE OR REPLACE VIEW V AS SELECT *, SUM(amount * 2) AS MEASURE total, AVG(price + 1) AS MEASURE mean FROM Sales`
)

// salesRows generates n deterministic Sales rows; another seed gives
// other values in every column.
func salesRows(seed, n int) [][]msql.Value {
	regions := []string{"east", "west", "north", "south", "centre"}
	rows := make([][]msql.Value, n)
	for i := range rows {
		k := seed*7919 + i*31
		rows[i] = []msql.Value{
			sqltypes.NewString(regions[(k/3)%len(regions)]),
			sqltypes.NewInt(int64(k%97) - 5),
			sqltypes.NewFloat(float64(k%1013) / 7),
		}
	}
	return rows
}

// staleArtifact is one cached thing and the statements that go through it.
type staleArtifact struct {
	name     string
	rollups  bool
	prepared bool
	queries  []string
	opts     []msql.Option
	// binding returns the arguments of the i-th execution: constant for
	// the memo, varying for the artifacts the memo would otherwise hide.
	binding func(i int) []any
	memo    bool
	// lattice artifacts: whether INSERT folds in place or dirty-marks.
	exact bool
}

func fixedBinding(int) []any    { return []any{int64(10)} }
func eastBinding(int) []any     { return []any{"east"} }
func movingBinding(i int) []any { return []any{int64(i % 11)} }

var staleArtifacts = []staleArtifact{
	{name: "plan entry", prepared: true, queries: []string{tileQuery}, binding: movingBinding},
	{name: "result memo", prepared: true, memo: true, queries: []string{tileQuery}, binding: fixedBinding},
	{name: "result memo over the lattice", rollups: true, prepared: true, memo: true, queries: []string{keyQuery}, binding: eastBinding},
	{name: "column share", prepared: true, queries: []string{tileQuery}, binding: movingBinding,
		opts: []msql.Option{msql.WithVectorized(true)}},
	{name: "exact lattice node", rollups: true, exact: true, queries: []string{
		`SELECT region, AGGREGATE(total), COUNT(*) FROM V GROUP BY region`,
		`SELECT COUNT(*), AGGREGATE(total) FROM V`,
	}},
	{name: "dirty-marking lattice node", rollups: true, queries: []string{
		`SELECT region, AGGREGATE(mean) FROM V GROUP BY region`,
	}},
}

// staleEvent is something that happens to the database, and what the
// rule predicts for the first execution after it.
type staleEvent struct {
	name  string
	apply func(h *staleHarness)
	// replans: DDL ran, so every cached plan is dropped once and planned
	// again (and a lattice node keyed by the old definition or table is
	// not found again).
	replans bool
	// sameRows: Sales is in the state it was in; memoized rows and
	// lattice nodes are good as they stand.
	sameRows bool
	// appends: Sales grew within its generation; a lattice node folds
	// the delta, everything else derived from its rows is void.
	appends bool
	// newTable: the Sales object was replaced; its nodes are released at
	// once.
	newTable bool
	// reopens: the event ends in a new process image of a durable
	// database; counters are compared with zero.
	reopens bool
}

var staleEvents = []staleEvent{
	{name: "INSERT", appends: true, apply: func(h *staleHarness) {
		h.do(`INSERT INTO Sales VALUES ('east', 40, 1.5), ('polar', 2, 0.25), ('west', NULL, NULL)`)
	}},
	{name: "INSERT into another table", sameRows: true, apply: func(h *staleHarness) {
		h.do(`INSERT INTO Other VALUES (1), (2)`)
	}},
	{name: "TRUNCATE", apply: func(h *staleHarness) {
		h.do(`TRUNCATE TABLE Sales`)
	}},
	{name: "TRUNCATE + refill to the old row count", apply: func(h *staleHarness) {
		h.do(`TRUNCATE TABLE Sales`)
		h.load(2, staleRows)
	}},
	{name: "DROP + CREATE of the same name", replans: true, newTable: true, apply: func(h *staleHarness) {
		h.do(`DROP TABLE Sales`)
		h.do(`CREATE TABLE Sales (region VARCHAR, amount INTEGER, price DOUBLE)`)
		h.load(3, staleRows)
	}},
	{name: "CREATE OR REPLACE TABLE", replans: true, newTable: true, apply: func(h *staleHarness) {
		h.do(`CREATE OR REPLACE TABLE Sales (region VARCHAR, amount INTEGER, price DOUBLE)`)
		h.do(`INSERT INTO Sales VALUES ('south', 9, 0.5)`)
	}},
	{name: "CREATE OR REPLACE VIEW with a changed measure", replans: true, sameRows: true, apply: func(h *staleHarness) {
		h.do(viewV2)
	}},
	{name: "close + reopen of a durable DB", reopens: true, apply: func(h *staleHarness) {
		h.reopen()
		h.do(`INSERT INTO Sales VALUES ('east', 7, 7.5)`)
	}},
}

// staleHarness drives one database and records its history, so that a
// session without caches can be built at any point by replaying it.
type staleHarness struct {
	t     *testing.T
	a     *staleArtifact
	dir   string // durable when non-empty
	db    *msql.DB
	stmts []*msql.Stmt
	log   []func(db *msql.DB) error
	execs int
}

func newStaleHarness(t *testing.T, a *staleArtifact, durable bool) *staleHarness {
	h := &staleHarness{t: t, a: a}
	if durable {
		h.dir = t.TempDir()
	}
	h.open()
	h.do(`CREATE TABLE Sales (region VARCHAR, amount INTEGER, price DOUBLE)`)
	h.do(`CREATE TABLE Other (x INTEGER)`)
	h.load(1, staleRows)
	h.do(viewV1)
	return h
}

// open opens the database and puts the artifact's caches in place.
func (h *staleHarness) open() {
	h.t.Helper()
	h.db = msql.Open()
	if h.dir != "" {
		db, err := msql.OpenDir(h.dir)
		if err != nil {
			h.t.Fatal(err)
		}
		h.db = db
		h.t.Cleanup(func() { db.Close() })
	}
	h.db.SetRollups(h.a.rollups)
}

func (h *staleHarness) reopen() {
	h.t.Helper()
	if err := h.db.Close(); err != nil {
		h.t.Fatal(err)
	}
	h.open()
	h.stmts = nil
	if pc, rs := h.db.PlanCacheStats(), h.db.RollupStats(); pc != (msql.PlanCacheCounters{}) || rs != (msql.RollupStats{}) {
		h.t.Fatalf("reopened database starts with cache state: %+v %+v", pc, rs)
	}
}

// step applies one piece of history to the database and records it.
func (h *staleHarness) step(f func(db *msql.DB) error) {
	h.t.Helper()
	if err := f(h.db); err != nil {
		h.t.Fatal(err)
	}
	h.log = append(h.log, f)
}

func (h *staleHarness) do(sql string) {
	h.t.Helper()
	h.step(func(db *msql.DB) error { return db.Exec(sql) })
}

// load bulk-inserts n generated rows into Sales.
func (h *staleHarness) load(seed, n int) {
	h.t.Helper()
	h.step(func(db *msql.DB) error { return db.InsertRows("Sales", salesRows(seed, n)) })
}

// fresh builds a session with no caches by replaying the history.
func (h *staleHarness) fresh() *msql.DB {
	h.t.Helper()
	db := msql.Open()
	db.SetPlanCacheSize(0)
	for _, f := range h.log {
		if err := f(db); err != nil {
			h.t.Fatal(err)
		}
	}
	return db
}

// exec runs the artifact's statements on db the way the artifact runs
// them (stmts non-nil: prepared handles on that db) and renders every
// result for bit-exact comparison.
func (h *staleHarness) exec(db *msql.DB, stmts []*msql.Stmt, args []any) ([][]string, error) {
	out := make([][]string, len(h.a.queries))
	for i, q := range h.a.queries {
		var (
			res *msql.Result
			err error
		)
		if stmts != nil {
			res, err = stmts[i].QueryContext(context.Background(), args, h.a.opts...)
		} else {
			res, err = db.QueryContext(context.Background(), q, h.a.opts...)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		out[i] = exactRows(res)
	}
	return out, nil
}

func (h *staleHarness) prepare(db *msql.DB) []*msql.Stmt {
	h.t.Helper()
	if !h.a.prepared {
		return nil
	}
	stmts := make([]*msql.Stmt, len(h.a.queries))
	for i, q := range h.a.queries {
		st, err := db.Prepare(q)
		if err != nil {
			h.t.Fatal(err)
		}
		stmts[i] = st
	}
	return stmts
}

// run executes the artifact's statements once on the live database.
func (h *staleHarness) run() (got [][]string, args []any) {
	h.t.Helper()
	if h.a.prepared && h.stmts == nil {
		h.stmts = h.prepare(h.db)
	}
	if h.a.binding != nil {
		args = h.a.binding(h.execs)
	}
	h.execs++
	got, err := h.exec(h.db, h.stmts, args)
	if err != nil {
		h.t.Fatal(err)
	}
	return got, args
}

// check executes once and compares with a session that has no caches.
func (h *staleHarness) check(when string) {
	h.t.Helper()
	got, args := h.run()
	ref := h.fresh()
	want, err := h.exec(ref, h.prepare(ref), args)
	if err != nil {
		h.t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%s, binding %v:\n got  %v\n want %v", when, args, got, want)
	}
}

// staleCounters is what the caches report about themselves.
type staleCounters struct {
	pc msql.PlanCacheCounters
	rs msql.RollupStats
}

func (h *staleHarness) counters() staleCounters {
	return staleCounters{h.db.PlanCacheStats(), h.db.RollupStats()}
}

func TestStaleness(t *testing.T) {
	for ai := range staleArtifacts {
		a := &staleArtifacts[ai]
		for _, ev := range staleEvents {
			t.Run(a.name+"/"+ev.name, func(t *testing.T) {
				h := newStaleHarness(t, a, ev.reopens)
				// Warm up until the artifact exists: plan (miss), cached
				// execution (memo store, column share fill, lattice
				// build), and one answered from it.
				for i := 0; i < 3; i++ {
					h.check("warm-up")
				}
				warm := h.counters()
				nq := int64(len(a.queries))
				if a.prepared && (warm.pc.Misses != nq || warm.pc.Hits != 2*nq) {
					t.Fatalf("warm-up did not leave cached plans: %+v", warm.pc)
				}
				if a.memo != (warm.pc.MemoHits > 0) {
					t.Fatalf("warm-up memo hits = %d, memo artifact = %t", warm.pc.MemoHits, a.memo)
				}
				if a.rollups && (warm.rs.Hits == 0 || warm.rs.Nodes == 0) {
					t.Fatalf("warm-up did not build lattice nodes: %+v", warm.rs)
				}

				ev.apply(h)
				if ev.newTable && h.db.RollupStats().Nodes != 0 {
					t.Fatalf("nodes of the replaced table were not released: %+v", h.db.RollupStats())
				}
				before := warm
				if ev.reopens {
					before = staleCounters{}
				}
				h.check("first execution after the event")
				after := h.counters()

				if a.prepared {
					inval, miss, hit := after.pc.Invalidations-before.pc.Invalidations, after.pc.Misses-before.pc.Misses, after.pc.Hits-before.pc.Hits
					switch {
					case ev.replans && (inval != nq || miss != nq || hit != 0):
						t.Errorf("DDL must invalidate every plan once: invalidations +%d misses +%d hits +%d", inval, miss, hit)
					case ev.reopens && (inval != 0 || miss != nq || hit != 0):
						t.Errorf("a reopened database plans afresh: invalidations +%d misses +%d hits +%d", inval, miss, hit)
					case !ev.replans && !ev.reopens && (inval != 0 || miss != 0 || hit != nq):
						t.Errorf("a plan must outlive a change of rows: invalidations +%d misses +%d hits +%d", inval, miss, hit)
					}
					wantMemo := int64(0)
					if a.memo && ev.sameRows && !ev.replans {
						wantMemo = nq
					}
					if got := after.pc.MemoHits - before.pc.MemoHits; got != wantMemo {
						t.Errorf("memo hits +%d, want +%d", got, wantMemo)
					}
				}
				if a.rollups && !a.prepared {
					was, is := before.rs, after.rs
					builds, resets := is.Builds-was.Builds, is.Invalidations-was.Invalidations
					folded, rebuilt := is.IncrementalRows-was.IncrementalRows, is.Rebuilds-was.Rebuilds
					if is.Hits-was.Hits < nq {
						t.Errorf("the lattice did not answer after the event: %+v", is)
					}
					switch {
					case ev.replans || ev.reopens:
						if builds == 0 {
							t.Errorf("no node built for the new table or definition: %+v", after.rs)
						}
					case ev.sameRows:
						if builds != 0 || resets != 0 || folded != 0 || rebuilt != 0 {
							t.Errorf("untouched node did work: builds +%d resets +%d folded +%d rebuilt +%d", builds, resets, folded, rebuilt)
						}
					case ev.appends:
						if builds != 0 || resets != 0 || a.exact != (folded > 0) || a.exact != (rebuilt == 0) {
							t.Errorf("delta not folded as an exact=%t node folds it: builds +%d resets +%d folded +%d rebuilt +%d", a.exact, builds, resets, folded, rebuilt)
						}
					default: // truncated
						if builds != 0 || resets == 0 {
							t.Errorf("truncated node was not reset in place: builds +%d resets +%d", builds, resets)
						}
					}
				}

				// The artifact forms again and keeps answering correctly.
				for i := 0; i < 3; i++ {
					h.check("after the artifact formed again")
				}
				if end := h.counters(); a.memo && end.pc.MemoHits == after.pc.MemoHits {
					t.Errorf("memo never answered again: %+v", end.pc)
				}
			})
		}
		t.Run(a.name+"/insert racing a running execution", func(t *testing.T) { staleRace(t, a) })
	}
}

// staleRace inserts batches while another goroutine keeps executing the
// artifact's statements: every answer must be, bit for bit, the answer
// of a session without caches after some prefix of the batches, and no
// answer may be of an earlier prefix than the one before it.
func staleRace(t *testing.T, a *staleArtifact) {
	const batches = 12
	h := newStaleHarness(t, a, false)
	for i := 0; i < 3; i++ {
		h.check("warm-up")
	}
	batch := func(i int) string {
		return fmt.Sprintf(`INSERT INTO Sales VALUES ('east', %d, %d.5), ('racer', 1, 0.125)`, 100+i, i)
	}
	// The race uses one binding; expected[i] is the answer after i batches.
	var args []any
	if a.binding != nil {
		args = a.binding(0)
	}
	ref := h.fresh()
	refStmts := h.prepare(ref)
	expected := make([][][]string, batches+1)
	for i := range expected {
		if i > 0 {
			ref.MustExec(batch(i))
		}
		want, err := h.exec(ref, refStmts, args)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = want
	}
	if a.prepared {
		h.stmts = h.prepare(h.db)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= batches; i++ {
			if err := h.db.Exec(batch(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	at := make([]int, len(a.queries)) // prefix each statement last answered from
	read := func() {
		got, err := h.exec(h.db, h.stmts, args)
		if err != nil {
			t.Error(err)
			return
		}
		for q := range got {
			i := at[q]
			for i <= batches && !reflect.DeepEqual(got[q], expected[i][q]) {
				i++
			}
			if i > batches {
				t.Errorf("%s: answer is of no prefix at or after %d: %v", a.queries[q], at[q], got[q])
				return
			}
			at[q] = i
		}
	}
	for running := true; running && !t.Failed(); {
		select {
		case <-done:
			running = false
		default:
		}
		read()
	}
	wg.Wait()
	read()
	for q, i := range at {
		if i != batches && !t.Failed() {
			t.Errorf("%s: final answer is of prefix %d, want %d", a.queries[q], i, batches)
		}
	}
}

// TestTruncateStatementSurface pins the statement form itself: parse,
// message, idempotence on an empty table, and the error for a missing
// table.
func TestTruncateStatementSurface(t *testing.T) {
	db := msql.Open()
	db.MustExec(`CREATE TABLE T (x INTEGER)`)
	db.MustExec(`INSERT INTO T VALUES (1), (2)`)
	db.MustExec(`TRUNCATE TABLE T`)
	db.MustExec(`TRUNCATE T`) // TABLE keyword is optional
	res := db.MustQuery(`SELECT COUNT(*) FROM T`)
	if res.Rows[0][0].I != 0 {
		t.Fatalf("count after truncate = %d", res.Rows[0][0].I)
	}
	if err := db.Exec(`TRUNCATE TABLE NoSuch`); err == nil {
		t.Fatal("TRUNCATE of a missing table succeeded")
	}
	// TRUNCATE must keep working as an identifier.
	db.MustExec(`CREATE TABLE Truncate (x INTEGER)`)
	db.MustExec(`INSERT INTO Truncate VALUES (9)`)
	if got := db.MustQuery(`SELECT x FROM Truncate`).Rows[0][0].I; got != 9 {
		t.Fatalf("identifier use of TRUNCATE broken, got %d", got)
	}
}
