// Package msql is the public API of the measures-enabled SQL engine: an
// embeddable, in-memory SQL database implementing the language extension
// of "Measures in SQL" (Hyde & Fremlin, SIGMOD 2024).
//
// A measure is a column defined by AS MEASURE whose formula contains
// aggregate functions; referencing it in a query evaluates the formula
// in that call site's evaluation context, which the AT operator can
// transform (ALL, SET, VISIBLE, WHERE) — see README.md for a tour.
//
//	db := msql.Open()
//	db.MustExec(`CREATE TABLE Orders (prodName VARCHAR, revenue INTEGER)`)
//	db.MustExec(`INSERT INTO Orders VALUES ('Happy', 6), ('Acme', 5)`)
//	db.MustExec(`CREATE VIEW EO AS
//	    SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders`)
//	res, _ := db.Query(`SELECT prodName, AGGREGATE(sumRevenue)
//	    FROM EO GROUP BY prodName`)
//	fmt.Print(msql.Format(res))
package msql

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/rollup"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wal"
)

// Value is a SQL value.
type Value = sqltypes.Value

// Type is a SQL type (possibly a measure type, e.g. DOUBLE MEASURE).
type Type = sqltypes.Type

// Result holds the rows of one statement.
type Result = engine.Result

// Strategy selects how measure references are evaluated; see the paper's
// §5.1/§6.4 and EXPERIMENTS.md for the trade-offs.
type Strategy int

const (
	// StrategyDefault inlines measures into plain aggregation when
	// provably equivalent and memoizes correlated subqueries otherwise.
	StrategyDefault Strategy = iota
	// StrategyMemo always expands to correlated subqueries, with
	// memoization (the "localized self-join" of §5.1).
	StrategyMemo
	// StrategyNaive always expands to correlated subqueries and
	// re-evaluates them per row/group (the textbook nested-loops
	// reading of the §4.2 rewrite).
	StrategyNaive
)

// DB is an in-memory SQL database session.
//
// Concurrency contract: a DB is intended for sequential use — one
// statement at a time — and concurrent queries on one DB share the
// catalog and metrics. Each statement counts its execution into
// counters of its own, so the metrics add up exactly whatever runs at
// once, and LastStats reads the counters of the statement that finished
// last.
// Configuration is nonetheless mutation-safe: SetStrategy, SetWorkers,
// and SetLimits take effect on the next statement, and every statement
// snapshots its settings at start, so calling a setter while a query
// runs on another goroutine degrades gracefully (the in-flight query
// keeps its settings) instead of racing. Per-call options
// (WithWorkers, WithLimits, WithTimeout) never touch shared state.
type DB struct {
	session *engine.Session
}

// Open creates an empty database.
func Open() *DB {
	return &DB{session: engine.New()}
}

// SyncPolicy controls when the write-ahead log is fsynced; see OpenDir.
type SyncPolicy = wal.SyncPolicy

const (
	// SyncAlways fsyncs before acknowledging each mutation (group
	// commit batches concurrent writers into shared fsyncs). No
	// acknowledged write is ever lost to a crash.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a short timer; a crash can lose the last
	// interval's writes but never corrupts the store.
	SyncInterval = wal.SyncInterval
	// SyncOff never fsyncs explicitly (the OS flushes eventually).
	SyncOff = wal.SyncOff
)

// ParseSyncPolicy parses "always", "interval", or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// DirOption adjusts OpenDir.
type DirOption func(*wal.Options)

// WithSyncPolicy selects the WAL fsync policy (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) DirOption {
	return func(o *wal.Options) { o.Sync = p }
}

// WithSyncInterval sets the SyncInterval flush period (default 50ms).
func WithSyncInterval(d time.Duration) DirOption {
	return func(o *wal.Options) { o.SyncEvery = d }
}

// OpenDir opens a durable database backed by dir, creating it if
// needed. Catalog and data mutations are written to an append-only,
// checksummed write-ahead log before they are acknowledged; Checkpoint
// snapshots the full store and truncates the log. Reopening the
// directory recovers the store — after a crash, recovery replays the
// snapshot plus the log tail, truncating a torn final record cleanly.
func OpenDir(dir string, opts ...DirOption) (*DB, error) {
	var o wal.Options
	for _, opt := range opts {
		opt(&o)
	}
	s, err := engine.NewDurable(dir, o)
	if err != nil {
		return nil, err
	}
	return &DB{session: s}, nil
}

// Durable reports whether this database writes through a WAL.
func (db *DB) Durable() bool { return db.session.Durable() }

// Checkpoint snapshots the full store to disk and truncates the WAL,
// bounding the next recovery's replay work. No-op for in-memory
// databases.
func (db *DB) Checkpoint() error { return db.session.Checkpoint() }

// Sync forces every acknowledged mutation onto disk regardless of the
// sync policy (useful before a planned stop under SyncInterval/SyncOff).
// No-op for in-memory databases.
func (db *DB) Sync() error { return db.session.SyncWAL() }

// Close flushes and closes the write-ahead log. The database stays
// readable; mutations fail after Close. No-op for in-memory databases.
func (db *DB) Close() error { return db.session.CloseDurability() }

// WALStats is a point-in-time copy of the durability layer's counters.
type WALStats = wal.Stats

// WALStats returns WAL/checkpoint/recovery counters (zero value for
// in-memory databases). The same data is queryable as
// msql_stats.storage and exported via Metrics().
func (db *DB) WALStats() WALStats { return db.session.WALStats() }

// SetStrategy switches the measure evaluation strategy for subsequent
// statements.
func (db *DB) SetStrategy(s Strategy) {
	db.session.Update(func(ex *exec.Settings, opt *optimizer.Options) {
		switch s {
		case StrategyMemo:
			opt.InlineMeasures = false
			opt.WinMagic = false
			opt.MemoizeSubqueries = true
			ex.MemoizeSubqueries = true
		case StrategyNaive:
			opt.InlineMeasures = false
			opt.WinMagic = false
			opt.MemoizeSubqueries = false
			ex.MemoizeSubqueries = false
		default:
			opt.InlineMeasures = true
			opt.WinMagic = true
			opt.MemoizeSubqueries = true
			ex.MemoizeSubqueries = true
		}
	})
	switch s {
	case StrategyMemo:
		db.session.SetStrategyLabel("memo")
	case StrategyNaive:
		db.session.SetStrategyLabel("naive")
	default:
		db.session.SetStrategyLabel("default")
	}
}

// SetWorkers sets the executor's worker-goroutine budget for subsequent
// statements: 0 means up to one worker per CPU, 1 runs the exact serial
// path. It is an upper bound: each other statement in progress in the
// process takes one worker away, down to one. Results are identical at
// every setting; only wall-clock time changes.
func (db *DB) SetWorkers(n int) {
	db.session.Update(func(ex *exec.Settings, _ *optimizer.Options) {
		ex.Workers = n
	})
}

// SetVectorized toggles columnar batch execution for subsequent
// statements: filter, project, and hash aggregation run ~1024 rows at a
// time through typed kernels, falling back per-expression to the row
// evaluator for anything without a kernel (subqueries, CASE, volatile
// functions). Results are bit-identical to the row engine either way.
func (db *DB) SetVectorized(on bool) {
	db.session.Update(func(ex *exec.Settings, _ *optimizer.Options) {
		ex.Vectorized = on
	})
}

// SetRollups toggles the materialized rollup lattice for subsequent
// statements: eligible aggregations (plain GROUP BY dashboards, measure
// contexts, AT (ALL ...), ROLLUP) are answered from incrementally
// maintained per-group aggregate states instead of rescanning base
// rows. Results are bit-identical to direct execution — queries the
// lattice cannot answer exactly fall back transparently. Enabling
// replaces any previous lattice with an empty one.
func (db *DB) SetRollups(on bool) { db.session.SetRollups(on) }

// RollupStats is a point-in-time copy of the rollup lattice's activity
// counters.
type RollupStats = rollup.Counters

// RollupStats returns the lattice counters (zero value while rollups
// are disabled).
func (db *DB) RollupStats() RollupStats { return db.session.RollupStats() }

// Limits bounds one statement's resource consumption; see SetLimits and
// WithLimits. The zero value means unlimited in every dimension.
type Limits = exec.Limits

// SetLimits installs session-wide resource limits applied to every
// subsequent statement. Limit trips return ErrResourceExhausted (or
// ErrTimeout for Limits.Timeout) and increment session metrics.
func (db *DB) SetLimits(l Limits) {
	db.session.Update(func(ex *exec.Settings, _ *optimizer.Options) {
		ex.Limits = l
	})
}

// Option adjusts a single Context call without touching session state.
type Option func(*engine.Overrides)

// WithWorkers overrides the worker budget for one call; like SetWorkers,
// it bounds the fan-out that other statements in progress leave.
func WithWorkers(n int) Option {
	return func(ov *engine.Overrides) { ov.Workers = &n }
}

// WithLimits replaces the resource limits for one call.
func WithLimits(l Limits) Option {
	return func(ov *engine.Overrides) { ov.Limits = &l }
}

// WithVectorized overrides the columnar-execution toggle for one call;
// see SetVectorized.
func WithVectorized(on bool) Option {
	return func(ov *engine.Overrides) { ov.Vectorized = &on }
}

// WithTimeout overrides (only) the statement timeout for one call.
func WithTimeout(d time.Duration) Option {
	return func(ov *engine.Overrides) { ov.Timeout = &d }
}

// WithSource labels the statement's origin ("repl", "api", "wire") in
// the live-query registry and slow-query log; unset defaults to "api".
func WithSource(source string) Option {
	return func(ov *engine.Overrides) { ov.Source = source }
}

// WithRequestID attaches a request correlation ID to one call: tracer
// spans for the statement carry request_id and query_id attributes, and
// the slow-query log and active-query listing echo the ID.
func WithRequestID(id string) Option {
	return func(ov *engine.Overrides) { ov.RequestID = id }
}

func overrides(opts []Option) *engine.Overrides {
	if len(opts) == 0 {
		return nil
	}
	ov := &engine.Overrides{}
	for _, o := range opts {
		o(ov)
	}
	return ov
}

// Exec runs a script of one or more statements, discarding result rows.
func (db *DB) Exec(sql string) error {
	_, err := db.session.Execute(sql)
	return err
}

// ExecContext is Exec under a context: cancel the context (or exceed
// its deadline / a WithTimeout option) and the running statement stops
// cooperatively with ErrCanceled or ErrTimeout.
func (db *DB) ExecContext(ctx context.Context, sql string, opts ...Option) error {
	_, err := db.session.ExecuteContext(ctx, sql, overrides(opts))
	return err
}

// Run executes a script and returns every statement's result (rows for
// queries, a message for DDL/DML/EXPLAIN/EXPAND).
func (db *DB) Run(sql string) ([]*Result, error) {
	return db.session.Execute(sql)
}

// RunContext is Run under a context with per-call options; results of
// the statements completed before an error are returned alongside it.
func (db *DB) RunContext(ctx context.Context, sql string, opts ...Option) ([]*Result, error) {
	return db.session.ExecuteContext(ctx, sql, overrides(opts))
}

// MustExec is Exec that panics on error, for setup code and examples.
func (db *DB) MustExec(sql string) {
	if err := db.Exec(sql); err != nil {
		panic(err)
	}
}

// Query runs a single statement and returns its rows.
func (db *DB) Query(sql string) (*Result, error) {
	return db.session.Query(sql)
}

// QueryContext is Query under a context: execution polls the context
// cooperatively (including inside parallel workers and in-flight
// measure-subquery evaluations), so cancellation returns ErrCanceled
// promptly and leaves the session usable.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	return db.session.QueryContext(ctx, sql, overrides(opts))
}

// MustQuery is Query that panics on error.
func (db *DB) MustQuery(sql string) *Result {
	res, err := db.Query(sql)
	if err != nil {
		panic(err)
	}
	return res
}

// Explain returns the optimized logical plan of a query as text.
func (db *DB) Explain(sql string) (string, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return "", err
	}
	res, err := db.session.ExecStatement(&ast.Explain{Query: q})
	if err != nil {
		return "", err
	}
	return res.Message, nil
}

// ExplainAnalyze executes a query and returns the optimized plan
// annotated per operator with rows, loops, worker fan-out and wall time,
// and per measure subquery with distinct-context evaluations vs memo
// hits — equivalent to running `EXPLAIN ANALYZE <sql>`.
func (db *DB) ExplainAnalyze(sql string) (string, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return "", err
	}
	res, err := db.session.ExecStatement(&ast.Explain{Query: q, Analyze: true})
	if err != nil {
		return "", err
	}
	return res.Message, nil
}

// Expand rewrites a measure query into plain, measure-free SQL — the
// paper's §4.2 static expansion (Listings 5 and 11). The returned SQL
// parses and runs on this same engine with identical results.
func (db *DB) Expand(sql string) (string, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return "", err
	}
	return db.session.ExpandQuery(q)
}

// InsertRows bulk-inserts pre-built rows into a base table without going
// through the SQL parser; values are coerced to the column types.
func (db *DB) InsertRows(table string, rows [][]Value) error {
	return db.session.InsertRows(table, rows)
}

// Stats holds executor counters for one query (see LastStats).
type Stats = exec.Stats

// LastStats returns executor counters for the query that finished
// last: subquery evaluations, memo-cache hits, rows scanned. Useful to
// verify what a strategy actually did (EXPERIMENTS.md E12).
func (db *DB) LastStats() Stats { return db.session.LastStats() }

// TraceSpan is one structured query-lifecycle event: parse, bind,
// measure expansion (which measure, which context transform), optimizer
// rewrites that fired, execution, and per-operator detail.
type TraceSpan = exec.Span

// TraceHook receives lifecycle spans; implementations must be safe for
// concurrent use.
type TraceHook = exec.Tracer

// SetTrace installs a lifecycle trace hook on the session; nil removes
// it. Bundled implementations: NewTextTracer, NewJSONTracer.
func (db *DB) SetTrace(t TraceHook) { db.session.SetTracer(t) }

// NewTextTracer returns a TraceHook rendering each span as one aligned
// text line on w.
func NewTextTracer(w io.Writer) TraceHook { return &exec.TextTracer{W: w} }

// NewJSONTracer returns a TraceHook rendering each span as one JSON
// object per line on w.
func NewJSONTracer(w io.Writer) TraceHook { return &exec.JSONTracer{W: w} }

// MetricsSnapshot is a point-in-time copy of a session's cumulative
// metrics; render with its JSON() (expvar-style) or Prometheus() (text
// exposition format) methods.
type MetricsSnapshot = engine.MetricsSnapshot

// Metrics returns cumulative session metrics: queries, rows, subquery
// cache hit ratio, and per-strategy plan/exec timings. When a query
// server has registered itself (RegisterServerMetrics), the snapshot
// additionally carries its admission/drain counters.
func (db *DB) Metrics() MetricsSnapshot { return db.session.MetricsSnapshot() }

// ServerCounters is the serving layer's slice of a metrics snapshot:
// admission-control and drain counters published by a query server
// (msqld) sitting in front of this DB.
type ServerCounters = engine.ServerCounters

// RegisterServerMetrics installs (or with nil removes) a source of
// serving-layer counters; Metrics() calls it so the server's inflight/
// queued/shed/drain counters appear in the same JSON and Prometheus
// output as the engine's.
func (db *DB) RegisterServerMetrics(fn func() ServerCounters) {
	db.session.Metrics().SetServerSource(fn)
}

// Tables lists base tables and views, for tooling.
func (db *DB) Tables() (tables, views []string) {
	return db.session.Catalog().Names()
}

// SystemTables lists the read-only msql_stats.* virtual tables, for
// tooling like the CLI's \d.
func (db *DB) SystemTables() []string {
	return db.session.Catalog().VirtualNames()
}

// StatementStat is a point-in-time snapshot of one normalized
// statement's cumulative statistics, in the pg_stat_statements
// tradition: queries differing only in literal values share one
// fingerprint. The same data is queryable as msql_stats.statements.
type StatementStat = engine.StatementStat

// StatementStats snapshots the statement-stats store, sorted by
// fingerprint.
func (db *DB) StatementStats() []StatementStat { return db.session.StatementStats() }

// SetStatementStats toggles statement-stats tracking (default on).
// Turning it off removes fingerprinting and recording from the
// statement path; accumulated statistics are retained.
func (db *DB) SetStatementStats(on bool) { db.session.SetStatementStats(on) }

// ResetStatementStats clears all accumulated statement statistics.
func (db *DB) ResetStatementStats() { db.session.ResetStatementStats() }

// ActiveQuery is a point-in-time view of one in-flight statement, also
// queryable as msql_stats.active_queries.
type ActiveQuery = engine.ActiveQuery

// ActiveQueries lists in-flight statements, oldest first.
func (db *DB) ActiveQueries() []ActiveQuery { return db.session.ActiveQueries() }

// Kill cancels the in-flight statement with the given query ID
// (equivalent to the SQL statement KILL <id>), returning false when no
// such query is running. The victim fails with ErrCanceled at its next
// cooperative checkpoint.
func (db *DB) Kill(id int64) bool { return db.session.Kill(id) }

// SetSlowQueryLog installs (or with nil w removes) a slow-query log:
// statements whose total wall time is at least threshold emit one JSON
// line to w with the query ID, request ID, source, fingerprint, and
// duration.
func (db *DB) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	db.session.SetSlowQueryLog(w, threshold)
}

// Format renders a result as an aligned text table, in the style of the
// paper's listings.
func Format(res *Result) string {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range res.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range res.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("=", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(row)-1 {
				sb.WriteString(cell) // no trailing padding
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], cell)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
