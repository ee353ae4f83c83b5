// Package engine dispatches SQL statements: DDL against the catalog, DML
// against storage, and queries through binder → optimizer → executor.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/binder"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/rollup"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wal"
)

// Result is the outcome of one statement.
type Result struct {
	// Columns are the output column names (empty for non-queries).
	Columns []string
	// Types are the output column types.
	Types []sqltypes.Type
	// Rows are the result rows (nil for non-queries).
	Rows [][]sqltypes.Value
	// Message describes the effect of a non-query statement.
	Message string
}

// Session is one database session: a catalog plus execution settings.
// Statement execution snapshots the settings under mu (see
// statementConfig), so mutating them through Update while another
// goroutine runs a query is safe: the in-flight statement keeps the
// configuration it started with.
type Session struct {
	cat *catalog.Catalog
	// mu guards exec, opt, and strategy against concurrent mutation.
	mu   sync.Mutex
	exec *exec.Settings
	opt  optimizer.Options
	// lastStats holds the counters of the execution that finished last,
	// under lastMu.
	lastMu    sync.Mutex
	lastStats exec.Stats
	metrics   *Metrics
	tracer    exec.Tracer
	// strategy labels the per-strategy metrics buckets; SetStrategy in
	// the public API keeps it in sync with the options it sets.
	strategy string
	// prepared is the named prepared-statement registry (SQL
	// PREPARE/EXECUTE and the wire protocol share it).
	prepared *preparedRegistry
	// plans is the session plan cache; every prepared execution routes
	// through it.
	plans *planCache
	// stmts aggregates per-fingerprint execution statistics
	// (msql_stats.statements).
	stmts *statementStats
	// queries is the live-query registry backing
	// msql_stats.active_queries and KILL.
	queries *queryRegistry
	// cas serializes ApplyCAS so its catalog-version
	// check-then-apply is atomic (the shard /apply endpoint's
	// exactly-once contract).
	cas sync.Mutex
	// rollups is the materialized rollup lattice (see rollups.go); nil
	// until SetRollups enables it. Written under the session mutex with
	// the executor settings; atomic so msql_stats.rollups and the metrics
	// snapshot can read it without touching that mutex.
	rollups atomic.Pointer[rollup.Lattice]
	// slow is the slow-query log configuration; a statement whose total
	// wall time meets the threshold emits one JSON line to w.
	slow struct {
		mu        sync.Mutex
		w         io.Writer
		threshold time.Duration
	}
	// dur is the write-ahead logging state (see durability.go); nil for
	// pure in-memory sessions.
	dur *durability
}

// Overrides carries per-statement setting overrides for the Context
// entry points; nil fields keep the session values.
type Overrides struct {
	// Workers overrides the executor worker budget.
	Workers *int
	// Limits replaces the session resource limits wholesale.
	Limits *exec.Limits
	// Timeout overrides (only) the statement timeout, after Limits.
	Timeout *time.Duration
	// Vectorized overrides the columnar-execution toggle.
	Vectorized *bool
	// Source labels the statement's origin in the live-query registry
	// ("repl", "api", "wire"); empty defaults to "api".
	Source string
	// RequestID is the caller-supplied request correlation ID. When set,
	// tracer spans for this statement are tagged with request_id and
	// query_id attributes, and the slow-query log carries it.
	RequestID string
}

// stmtConfig is the per-statement snapshot of session configuration:
// every statement runs to completion on the settings it started with.
type stmtConfig struct {
	exec     exec.Settings
	opt      optimizer.Options
	strategy string
}

// stmtEnv bundles one statement's context and configuration snapshot.
type stmtEnv struct {
	ctx context.Context
	cfg stmtConfig
	// execAttrs, when non-nil, is merged into the execute span's
	// attributes (prepared executions report cached= / cache_key=).
	execAttrs map[string]string
	// tracer is the statement's tracer: the session tracer, wrapped with
	// request/query ID tags when the statement carries a request ID.
	tracer exec.Tracer
	// live is this statement's entry in the live-query registry (nil for
	// bare planning envs).
	live *liveQuery
	// stats is the statement-stats accumulator for this statement's
	// fingerprint; nil when tracking is off or the statement is
	// untracked. Prepared EXECUTE retargets it to the underlying query's
	// fingerprint.
	stats *stmtStatEntry
	// requestID is the caller's correlation ID (Overrides.RequestID).
	requestID string
	// counts are the executor counters of the statement's execution: a
	// statement counts into its own, never into another's.
	counts exec.Stats
}

// span forwards one event to the statement tracer, if any.
func (env *stmtEnv) span(sp exec.Span) {
	if env.tracer != nil {
		env.tracer.Span(sp)
	}
}

// statementConfig snapshots the session settings under the lock and
// applies per-call overrides to the copy.
func (s *Session) statementConfig(ov *Overrides) stmtConfig {
	s.mu.Lock()
	cfg := stmtConfig{exec: *s.exec, opt: s.opt, strategy: s.strategy}
	s.mu.Unlock()
	if ov != nil {
		if ov.Workers != nil {
			cfg.exec.Workers = *ov.Workers
		}
		if ov.Limits != nil {
			cfg.exec.Limits = *ov.Limits
		}
		if ov.Timeout != nil {
			cfg.exec.Limits.Timeout = *ov.Timeout
		}
		if ov.Vectorized != nil {
			cfg.exec.Vectorized = *ov.Vectorized
		}
	}
	return cfg
}

// Update mutates the session settings under the lock. Statements that
// are already running keep their snapshot; the change applies to the
// next statement.
func (s *Session) Update(fn func(ex *exec.Settings, opt *optimizer.Options)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.exec, &s.opt)
}

// LastStats returns the executor counters of the query execution that
// finished last. Each execution counts into its own counters and
// publishes them as it finishes (recordExec), so statements running at
// once never count into each other's.
func (s *Session) LastStats() exec.Stats {
	s.lastMu.Lock()
	defer s.lastMu.Unlock()
	return s.lastStats
}

// Metrics returns the session's cumulative metrics registry.
func (s *Session) Metrics() *Metrics { return s.metrics }

// SetTracer installs (or with nil removes) a lifecycle tracer.
func (s *Session) SetTracer(t exec.Tracer) { s.tracer = t }

// SetStrategyLabel names the strategy bucket for subsequent queries.
func (s *Session) SetStrategyLabel(label string) {
	s.mu.Lock()
	s.strategy = label
	s.mu.Unlock()
}

// New creates an empty session with default settings.
func New() *Session {
	s := &Session{
		cat:      catalog.New(),
		exec:     exec.DefaultSettings(),
		opt:      optimizer.DefaultOptions(),
		metrics:  newMetrics(),
		strategy: "default",
		prepared: newPreparedRegistry(),
		plans:    newPlanCache(DefaultPlanCacheSize),
		stmts:    newStatementStats(),
		queries:  newQueryRegistry(),
	}
	s.registerSystemTables()
	return s
}

// Catalog exposes the session catalog (for tooling like the CLI's \d).
func (s *Session) Catalog() *catalog.Catalog { return s.cat }

// ExecSettings exposes the execution settings for strategy experiments.
func (s *Session) ExecSettings() *exec.Settings { return s.exec }

// OptOptions returns a pointer to the optimizer options for strategy
// experiments.
func (s *Session) OptOptions() *optimizer.Options { return &s.opt }

// span forwards one event to the session tracer, if any.
func (s *Session) span(sp exec.Span) {
	if s.tracer != nil {
		s.tracer.Span(sp)
	}
}

// parseSpanned runs one parse callback, emitting the parse lifecycle
// span and classifying any failure into the error taxonomy (wrapped
// with the statement text and folded into the session metrics). Every
// parse in the engine — scripts, single statements, and prepared
// queries — funnels through here so span and error handling cannot
// drift between entry points.
func (s *Session) parseSpanned(sql string, parse func() (int, error)) error {
	err := s.parseTraced(s.tracer, sql, parse)
	if err != nil {
		s.metrics.recordOutcome(s.strategyLabel(), err)
	}
	return err
}

// parseTraced is parseSpanned minus the metrics: a parse inside the
// statement guard rail leaves the outcome to it.
func (s *Session) parseTraced(t exec.Tracer, sql string, parse func() (int, error)) error {
	start := time.Now()
	n, err := parse()
	sp := exec.Span{Phase: "parse", Name: "parse", DurNs: int64(time.Since(start))}
	if err == nil {
		sp.Attrs = map[string]string{"statements": fmt.Sprintf("%d", n)}
	} else {
		sp.Attrs = map[string]string{"error": err.Error()}
	}
	if t != nil {
		t.Span(sp)
	}
	if err != nil {
		err = exec.WithQuery(exec.Wrap(err, exec.CodeParse, exec.PhaseParse), sql)
	}
	return err
}

// strategyLabel reads the current strategy label under the lock.
func (s *Session) strategyLabel() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.strategy
}

// parseStatements parses a script, emitting a parse span.
func (s *Session) parseStatements(sql string) ([]ast.Statement, error) {
	var stmts []ast.Statement
	err := s.parseSpanned(sql, func() (int, error) {
		var err error
		stmts, err = parser.ParseStatements(sql)
		return len(stmts), err
	})
	return stmts, err
}

// Execute parses and runs a script of one or more statements.
func (s *Session) Execute(sql string) ([]*Result, error) {
	return s.ExecuteContext(context.Background(), sql, nil)
}

// ExecuteContext parses and runs a script under ctx with per-call
// overrides (nil keeps the session settings). Errors carry the
// statement text.
func (s *Session) ExecuteContext(ctx context.Context, sql string, ov *Overrides) ([]*Result, error) {
	stmts, err := s.parseStatements(sql)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		r, err := s.ExecStatementContext(ctx, stmt, ov)
		if err != nil {
			return results, exec.WithQuery(err, sql)
		}
		results = append(results, r)
	}
	return results, nil
}

// Query runs a single statement that must produce rows.
func (s *Session) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql, nil)
}

// QueryContext runs a single row-producing statement under ctx with
// per-call overrides (nil keeps the session settings).
func (s *Session) QueryContext(ctx context.Context, sql string, ov *Overrides) (*Result, error) {
	var stmt ast.Statement
	err := s.parseSpanned(sql, func() (int, error) {
		var err error
		stmt, err = parser.ParseStatement(sql)
		return 1, err
	})
	if err != nil {
		return nil, err
	}
	r, err := s.ExecStatementContext(ctx, stmt, ov)
	if err != nil {
		return nil, exec.WithQuery(err, sql)
	}
	if r.Columns == nil {
		return nil, fmt.Errorf("statement did not return rows")
	}
	return r, nil
}

// ExecStatement runs one parsed statement.
func (s *Session) ExecStatement(stmt ast.Statement) (*Result, error) {
	return s.ExecStatementContext(context.Background(), stmt, nil)
}

// ExecStatementContext runs one parsed statement under ctx with
// per-call overrides. This is the engine's guard rail: the statement
// timeout is applied here (covering planning and execution), internal
// panics are recovered into CodeRuntime errors, every escaping error is
// classified into the taxonomy, and the outcome is folded into the
// session metrics.
func (s *Session) ExecStatementContext(ctx context.Context, stmt ast.Statement, ov *Overrides) (*Result, error) {
	return s.withStmtEnv(ctx, ov, s.statementInfo(stmt), func(env *stmtEnv) (*Result, error) {
		return s.execStatement(env, stmt)
	})
}

// withStmtEnv wraps one statement-shaped unit of work in the engine
// guard rail: settings snapshot, live-query registration (the KILL
// hook), statement timeout, panic recovery, error classification,
// metrics, statement statistics, and the slow-query log.
// Prepared-statement execution shares it with ExecStatementContext.
func (s *Session) withStmtEnv(ctx context.Context, ov *Overrides, info stmtInfo, fn func(env *stmtEnv) (*Result, error)) (res *Result, err error) {
	env := &stmtEnv{ctx: ctx, cfg: s.statementConfig(ov), tracer: s.tracer}
	source := "api"
	if ov != nil {
		if ov.Source != "" {
			source = ov.Source
		}
		env.requestID = ov.RequestID
	}
	start := time.Now()
	lq := &liveQuery{
		sql:         info.sql,
		fingerprint: info.fingerprint,
		source:      source,
		requestID:   env.requestID,
		strategy:    env.cfg.strategy,
		started:     start,
	}
	var done func()
	env.ctx, done = s.queries.register(env.ctx, lq)
	env.live = lq
	// Tag spans with correlation IDs only when the caller sent a request
	// ID, so untagged workloads see byte-identical spans.
	if env.requestID != "" && env.tracer != nil {
		env.tracer = &taggedTracer{t: env.tracer, attrs: map[string]string{
			"request_id": env.requestID,
			"query_id":   fmt.Sprintf("%d", lq.id),
		}}
	}
	env.stats = s.stmts.entry(info.fingerprint)
	if t := env.cfg.exec.Limits.Timeout; t > 0 {
		if _, has := env.ctx.Deadline(); !has {
			var cancel context.CancelFunc
			env.ctx, cancel = context.WithTimeout(env.ctx, t)
			defer cancel()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, exec.PanicError(r, exec.PhaseExecute)
		}
		if err != nil {
			err = exec.Wrap(err, exec.CodeRuntime, exec.PhaseExecute)
			s.metrics.recordOutcome(env.cfg.strategy, err)
		}
		done()
		// env.stats may have been retargeted by execPrepared, so read it
		// here rather than at registration time.
		if e := env.stats; e != nil {
			e.calls.Add(1)
			if err != nil {
				e.errors.Add(1)
			}
		}
		s.logSlowQuery(lq, time.Since(start), res, err)
	}()
	if err := env.ctx.Err(); err != nil {
		return nil, exec.CtxError(err)
	}
	return fn(env)
}

// SetSlowQueryLog installs (or with nil w removes) the slow-query log:
// statements whose total wall time is at least threshold emit one JSON
// line to w.
func (s *Session) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	s.slow.mu.Lock()
	s.slow.w = w
	s.slow.threshold = threshold
	s.slow.mu.Unlock()
}

// slowQueryRecord is one slow-query log line. Field order is the JSON
// field order, so log lines are stable for tooling.
type slowQueryRecord struct {
	TS          string  `json:"ts"`
	QueryID     int64   `json:"query_id"`
	RequestID   string  `json:"request_id,omitempty"`
	Source      string  `json:"source"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	SQL         string  `json:"sql"`
	DurMs       float64 `json:"dur_ms"`
	Rows        int     `json:"rows"`
	Code        string  `json:"code,omitempty"`
}

func (s *Session) logSlowQuery(lq *liveQuery, dur time.Duration, res *Result, err error) {
	s.slow.mu.Lock()
	w, threshold := s.slow.w, s.slow.threshold
	s.slow.mu.Unlock()
	if w == nil || dur < threshold {
		return
	}
	rec := slowQueryRecord{
		TS:          time.Now().UTC().Format(time.RFC3339Nano),
		QueryID:     lq.id,
		RequestID:   lq.requestID,
		Source:      lq.source,
		Fingerprint: lq.fingerprint,
		SQL:         lq.sql,
		DurMs:       float64(dur) / 1e6,
	}
	if res != nil {
		rec.Rows = len(res.Rows)
	}
	var ee *exec.Error
	if errors.As(err, &ee) {
		rec.Code = ee.Code.String()
	} else if err != nil {
		rec.Code = exec.CodeUnknown.String()
	}
	line, jerr := json.Marshal(rec)
	if jerr != nil {
		return
	}
	s.slow.mu.Lock()
	w.Write(append(line, '\n'))
	s.slow.mu.Unlock()
}

func (s *Session) execStatement(env *stmtEnv, stmt ast.Statement) (*Result, error) {
	switch stmt := stmt.(type) {
	case *ast.CreateTable, *ast.CreateView, *ast.Drop, *ast.Truncate:
		return s.execMutation(stmt)
	case *ast.Insert:
		return s.execInsert(env, stmt)
	case *ast.QueryStmt:
		return s.runQuery(env, stmt.Query)
	case *ast.Prepare:
		return s.execPrepareStmt(stmt)
	case *ast.ExecuteStmt:
		return s.execExecuteStmt(env, stmt)
	case *ast.Deallocate:
		return s.execDeallocate(stmt)
	case *ast.Explain:
		if stmt.Execute != nil {
			return s.explainExecute(env, stmt.Execute, stmt.Analyze)
		}
		if stmt.Analyze {
			return s.explainAnalyze(env, stmt.Query)
		}
		node, _, err := s.planQuery(env, stmt.Query)
		if err != nil {
			return nil, err
		}
		return &Result{Message: plan.ExplainTree(node)}, nil
	case *ast.Expand:
		text, err := s.ExpandQuery(stmt.Query)
		if err != nil {
			return nil, exec.Wrap(err, exec.CodeExpand, exec.PhaseExpand)
		}
		return &Result{Message: text}, nil
	case *ast.Kill:
		if !s.queries.kill(stmt.ID) {
			return nil, exec.Wrap(fmt.Errorf("no running query with id %d", stmt.ID), exec.CodeBind, exec.PhaseBind)
		}
		return &Result{Message: fmt.Sprintf("killed query %d", stmt.ID)}, nil
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// Plan binds and optimizes a query.
func (s *Session) Plan(q *ast.Query) (plan.Node, error) {
	env := &stmtEnv{ctx: context.Background(), cfg: s.statementConfig(nil), tracer: s.tracer}
	node, _, err := s.planQuery(env, q)
	return node, err
}

// StatementStats snapshots the statement-stats store, sorted by
// fingerprint.
func (s *Session) StatementStats() []StatementStat { return s.stmts.snapshot() }

// SetStatementStats toggles statement-stats tracking. When off, the
// fingerprinting and recording overhead disappears from the statement
// path; accumulated statistics are retained.
func (s *Session) SetStatementStats(on bool) { s.stmts.setEnabled(on) }

// ResetStatementStats clears all accumulated statement statistics.
func (s *Session) ResetStatementStats() { s.stmts.reset() }

// ActiveQueries lists the session's in-flight statements, oldest first.
func (s *Session) ActiveQueries() []ActiveQuery { return s.queries.snapshot() }

// Kill cancels the in-flight statement with the given query ID. It
// returns false when no such query is running. The victim fails with
// the CANCELED taxonomy code at its next cooperative checkpoint.
func (s *Session) Kill(id int64) bool { return s.queries.kill(id) }

// planQuery binds and optimizes q, emitting bind / expand / optimize
// lifecycle spans and returning the total planning time.
func (s *Session) planQuery(env *stmtEnv, q *ast.Query) (plan.Node, int64, error) {
	return s.planQueryParams(env, q, nil)
}

// planQueryParams is planQuery for parameterized queries: kinds types
// the statement's placeholders (nil rejects parameters entirely).
func (s *Session) planQueryParams(env *stmtEnv, q *ast.Query, kinds []sqltypes.Kind) (plan.Node, int64, error) {
	b := binder.New(s.cat).WithInline(env.cfg.opt.InlineMeasures).WithPositionFold(env.cfg.opt.MemoizeSubqueries)
	if kinds != nil {
		b = b.WithParams(kinds)
	}
	start := time.Now()
	bound, err := b.BindQuery(q)
	bindNs := int64(time.Since(start))
	if err != nil {
		return nil, 0, exec.Wrap(err, exec.CodeBind, exec.PhaseBind)
	}
	env.span(exec.Span{Phase: "bind", Name: "bind", DurNs: bindNs})
	if env.tracer != nil {
		for _, name := range b.InlinedMeasures() {
			env.span(exec.Span{Phase: "expand", Name: name, Attrs: map[string]string{"strategy": "inline"}})
		}
		env.emitExpandSpans(bound)
	}

	start = time.Now()
	node, rep := optimizer.OptimizeWithReportContext(env.ctx, bound, env.cfg.opt)
	optNs := int64(time.Since(start))
	env.span(exec.Span{Phase: "optimize", Name: "optimize", DurNs: optNs})
	if env.tracer != nil {
		rule := func(name, attr string, count int) {
			if count > 0 {
				env.span(exec.Span{Phase: "optimize", Name: name, Attrs: map[string]string{attr: fmt.Sprintf("%d", count)}})
			}
		}
		rule("winmagic", "rewrites", rep.WinMagicRewrites)
		rule("pushdown", "conjuncts", rep.FilterPushdowns)
		rule("project-merge", "projections", rep.ProjectMerges)
		rule("fold", "constants", rep.ConstantsFolded)
		rule("memo-strip", "subqueries", rep.MemoStripped)
	}
	return node, bindNs + optNs, nil
}

// emitExpandSpans reports each measure expansion present in the bound
// plan: BuildMeasureSubquery labels measure subqueries
// "measure <name> at <context>", which is exactly the (measure, context
// transform) pair the tracer wants.
func (env *stmtEnv) emitExpandSpans(n plan.Node) {
	plan.VisitNodeExprs(n, func(e plan.Expr) {
		plan.WalkExprs(e, func(x plan.Expr) {
			sq, ok := x.(*plan.Subquery)
			if !ok {
				return
			}
			if rest, ok := strings.CutPrefix(sq.Label, "measure "); ok {
				name, ctx := rest, ""
				if i := strings.Index(rest, " at "); i >= 0 {
					name, ctx = rest[:i], rest[i+len(" at "):]
				}
				attrs := map[string]string{"strategy": "subquery"}
				if ctx != "" {
					attrs["context"] = ctx
				}
				env.span(exec.Span{Phase: "expand", Name: name, Attrs: attrs})
			}
			env.emitExpandSpans(sq.Plan)
		})
	})
	for _, c := range n.Children() {
		env.emitExpandSpans(c)
	}
}

// execPlan runs an optimized plan with this session's settings: Stats
// are reset and collected into the statement's counts, the metrics
// registry is updated, and when withProfile is set (EXPLAIN ANALYZE) or
// a tracer is installed, per-operator metrics are collected too.
func (s *Session) execPlan(env *stmtEnv, node plan.Node, planNs int64, withProfile bool) ([][]sqltypes.Value, *exec.Profile, error) {
	env.live.setPhase(phaseExecute)
	env.counts = exec.Stats{}
	settings := env.cfg.exec
	settings.Stats = &env.counts
	var prof *exec.Profile
	if withProfile || env.tracer != nil {
		prof = exec.NewProfile(node)
		settings.Profile = prof
	}
	settings.Tracer = env.tracer

	start := time.Now()
	rows, err := exec.RunContext(env.ctx, node, &settings)
	execNs := int64(time.Since(start))
	if err != nil {
		env.span(exec.Span{Phase: "execute", Name: "query", DurNs: execNs,
			Attrs: map[string]string{"error": err.Error()}})
		return nil, nil, err
	}
	st := s.recordExec(env, len(rows), planNs, execNs)
	attrs := map[string]string{
		"rows":    fmt.Sprintf("%d", len(rows)),
		"scanned": fmt.Sprintf("%d", st.RowsScanned),
		"evals":   fmt.Sprintf("%d", st.SubqueryEvals),
		"hits":    fmt.Sprintf("%d", st.SubqueryCacheHits),
	}
	if settings.Vectorized {
		attrs["vectorized"] = "true"
		attrs["batches"] = fmt.Sprintf("%d", st.VecBatches)
		attrs["kernel_rows"] = fmt.Sprintf("%d", st.VecKernelRows)
		attrs["fallback_rows"] = fmt.Sprintf("%d", st.VecFallbackRows)
	}
	if st.RollupHits > 0 {
		attrs["rollup_hits"] = fmt.Sprintf("%d", st.RollupHits)
	}
	for k, v := range env.execAttrs {
		attrs[k] = v
	}
	env.span(exec.Span{Phase: "execute", Name: "query", DurNs: execNs, Attrs: attrs})
	if prof != nil && env.tracer != nil {
		exec.PlanSpans(node, prof, env.tracer)
	}
	return rows, prof, nil
}

// recordExec folds one execution, counted into the statement's counts,
// into the session's metrics and the statement's stats, publishes it as
// the last (LastStats), and returns its counters.
func (s *Session) recordExec(env *stmtEnv, rows int, planNs, execNs int64) exec.Stats {
	st := env.counts.Snapshot()
	s.lastMu.Lock()
	s.lastStats = st
	s.lastMu.Unlock()
	s.metrics.recordQuery(env.cfg.strategy, rows, st, planNs, execNs)
	if e := env.stats; e != nil {
		e.rows.Add(int64(rows))
		e.cacheHits.Add(st.SubqueryCacheHits)
		e.plan.Observe(planNs)
		e.exec.Observe(execNs)
	}
	return st
}

func (s *Session) runQuery(env *stmtEnv, q *ast.Query) (*Result, error) {
	node, planNs, err := s.planQuery(env, q)
	if err != nil {
		return nil, err
	}
	rows, _, err := s.execPlan(env, node, planNs, false)
	if err != nil {
		return nil, err
	}
	columns, types := outputColumns(node)
	return queryResult(columns, types, rows), nil
}

// outputColumns returns the names and types of a plan's output columns.
func outputColumns(node plan.Node) ([]string, []sqltypes.Type) {
	sch := node.Schema()
	types := make([]sqltypes.Type, len(sch.Cols))
	for i, c := range sch.Cols {
		types[i] = c.Typ
	}
	return sch.ColNames(), types
}

// queryResult assembles the Result of a query; Columns is non-nil even
// without columns, which is how callers tell a query from a statement.
func queryResult(columns []string, types []sqltypes.Type, rows [][]sqltypes.Value) *Result {
	if columns == nil {
		columns = []string{}
	}
	return &Result{Columns: columns, Types: types, Rows: rows}
}

// explainAnalyze executes the query with a Profile attached and renders
// the annotated plan plus a totals footer.
func (s *Session) explainAnalyze(env *stmtEnv, q *ast.Query) (*Result, error) {
	node, planNs, err := s.planQuery(env, q)
	if err != nil {
		return nil, err
	}
	rows, prof, err := s.execPlan(env, node, planNs, true)
	if err != nil {
		return nil, err
	}
	return &Result{Message: plan.ExplainAnalyzeTree(node, prof) + analyzeTotals(env, len(rows))}, nil
}

// analyzeTotals renders the Totals: footer of EXPLAIN ANALYZE from the
// counters of the statement's execution, which just finished.
func analyzeTotals(env *stmtEnv, rows int) string {
	st := env.counts.Snapshot()
	totals := fmt.Sprintf("Totals: rows=%d scanned=%d evals=%d hits=%d fanouts=%d",
		rows, st.RowsScanned, st.SubqueryEvals, st.SubqueryCacheHits, st.ParallelFanouts)
	if st.VecBatches > 0 {
		totals += fmt.Sprintf(" batches=%d kernel=%d fallback=%d",
			st.VecBatches, st.VecKernelRows, st.VecFallbackRows)
	}
	return totals + "\n"
}

// execMutation runs a CREATE TABLE, CREATE VIEW, DROP or TRUNCATE: it
// makes the statement's record and applies it under the mutation lock. A
// view's definition is bound first, so an invalid one fails at CREATE
// time.
func (s *Session) execMutation(stmt ast.Statement) (*Result, error) {
	rec, err := mutationRecord(stmt)
	if err != nil {
		return nil, err
	}
	if cv, ok := stmt.(*ast.CreateView); ok {
		if _, err := binder.New(s.cat).BindQuery(cv.Query); err != nil {
			return nil, fmt.Errorf("invalid view definition: %w", err)
		}
	}
	defer s.lockDurable()()
	n, err := s.apply(rec)
	if err != nil {
		return nil, err
	}
	return mutationResult(rec, n), nil
}

// mutationRecord makes the record of a CREATE TABLE, CREATE VIEW, DROP
// or TRUNCATE statement. An INSERT's record needs its rows prepared
// first (insertRows).
func mutationRecord(stmt ast.Statement) (*wal.Record, error) {
	switch stmt := stmt.(type) {
	case *ast.CreateTable:
		rec := &wal.Record{Type: wal.RecCreateTable, Name: stmt.Name, OrReplace: stmt.OrReplace,
			Cols: make([]string, len(stmt.Cols)), Types: make([]sqltypes.Type, len(stmt.Cols))}
		for i, c := range stmt.Cols {
			kind := sqltypes.KindFromName(c.TypeName)
			if kind == sqltypes.KindUnknown {
				return nil, fmt.Errorf("unknown type %s for column %s", c.TypeName, c.Name)
			}
			rec.Cols[i], rec.Types[i] = c.Name, sqltypes.Type{Kind: kind}
		}
		return rec, nil
	case *ast.CreateView:
		// A view travels as rendered SQL, parsed again where its record
		// is applied: the view keeps an AST of its own text, not one
		// pointing into the script the statement came in.
		return &wal.Record{Type: wal.RecCreateView, Name: stmt.Name, OrReplace: stmt.OrReplace,
			SQL: ast.FormatQuery(stmt.Query)}, nil
	case *ast.Drop:
		return &wal.Record{Type: wal.RecDrop, Kind: stmt.Kind, Name: stmt.Name}, nil
	case *ast.Truncate:
		return &wal.Record{Type: wal.RecTruncate, Name: stmt.Table}, nil
	}
	return nil, fmt.Errorf("%T makes no mutation record", stmt)
}

// mutationResult is the result of the statement whose record applied;
// n counts the rows it inserted or truncated.
func mutationResult(rec *wal.Record, n int) *Result {
	var msg string
	switch rec.Type {
	case wal.RecCreateTable:
		msg = "created table " + rec.Name
	case wal.RecCreateView:
		msg = "created view " + rec.Name
	case wal.RecDrop:
		msg = "dropped " + strings.ToLower(rec.Kind) + " " + rec.Name
	case wal.RecInsert:
		msg = fmt.Sprintf("inserted %d rows", n)
	case wal.RecTruncate:
		msg = fmt.Sprintf("truncated table %s (%d rows)", rec.Name, n)
	}
	return &Result{Message: msg}
}

// apply applies one mutation record, and is the only code that does: a
// statement applies the record it made, recovery the records after the
// snapshot, a shard the records a coordinator ships (ApplyCAS). The
// caller holds the mutation lock (lockDurable). apply validates the
// record against the catalog, logs it, applies it to the catalog and
// storage, and counts it in the version, so a record is only logged for
// a mutation that applies cleanly and a failed append changes nothing in
// memory. An INSERT's rows are coerced before they are logged, so the
// log carries exactly the values stored. A CREATE VIEW record's SQL is
// parsed into the view's query. n counts the rows the record inserted or
// truncated.
func (s *Session) apply(rec *wal.Record) (n int, err error) {
	var (
		table *catalog.BaseTable
		view  *ast.Query
	)
	switch rec.Type {
	case wal.RecCreateTable, wal.RecCreateView:
		if err := s.cat.CheckCreate(rec.Name, rec.OrReplace); err != nil {
			return 0, err
		}
		if rec.Type == wal.RecCreateView {
			if view, err = parser.ParseQuery(rec.SQL); err != nil {
				return 0, fmt.Errorf("view %s: %w", rec.Name, err)
			}
		}
	case wal.RecDrop:
		if err := s.cat.CheckDrop(rec.Kind, rec.Name); err != nil {
			return 0, err
		}
	case wal.RecInsert, wal.RecTruncate:
		var ok bool
		if table, ok = s.cat.Table(rec.Name); !ok {
			return 0, fmt.Errorf("table %s does not exist", rec.Name)
		}
		if rec.Type == wal.RecInsert {
			coerced, err := table.Data.CoerceRows(rec.Rows)
			if err != nil {
				return 0, err
			}
			rec.Rows = coerced
		}
	default:
		return 0, fmt.Errorf("unknown mutation record %s", rec.Type)
	}
	if err := s.logMutation(rec); err != nil {
		return 0, err
	}
	switch rec.Type {
	case wal.RecCreateTable:
		_, err = s.cat.CreateTable(rec.Name, rec.Cols, rec.Types, rec.OrReplace)
	case wal.RecCreateView:
		err = s.cat.CreateView(rec.Name, view, rec.OrReplace)
	case wal.RecDrop:
		err = s.cat.Drop(rec.Kind, rec.Name)
	case wal.RecInsert:
		table.Data.InsertPrepared(rec.Rows)
		s.cat.BumpVersion()
		return len(rec.Rows), nil
	case wal.RecTruncate:
		n = table.Data.State().Rows
		table.Data.Truncate()
		s.cat.BumpVersion()
		return n, nil
	}
	if err != nil {
		return 0, err
	}
	// DDL counts itself in the version.
	s.rollupDDL(rec.Name)
	return 0, nil
}

// execInsert runs an INSERT: its rows are prepared (insertRows), then
// inserted into the table they were prepared for (insert).
func (s *Session) execInsert(env *stmtEnv, stmt *ast.Insert) (*Result, error) {
	table, rows, err := s.insertRows(stmt, func(q *ast.Query) (*Result, error) { return s.runQuery(env, q) })
	if err != nil {
		return nil, err
	}
	rec := &wal.Record{Type: wal.RecInsert, Name: stmt.Table, Rows: rows}
	n, err := s.insert(rec, table)
	if err != nil {
		return nil, err
	}
	return mutationResult(rec, n), nil
}

// insertRows prepares the rows stmt inserts into its table: the column
// list mapped onto the table's columns, the VALUES evaluated or the
// source query run by query, and every column the list leaves out NULL.
// The rows are in table order and not yet coerced.
func (s *Session) insertRows(stmt *ast.Insert, query func(*ast.Query) (*Result, error)) (*catalog.BaseTable, [][]sqltypes.Value, error) {
	table, ok := s.cat.Table(stmt.Table)
	if !ok {
		return nil, nil, fmt.Errorf("table %s does not exist", stmt.Table)
	}
	colNames := table.ColNames()

	// With a column list, target[ti] is the place of table column ti in
	// a row of values, -1 when the list leaves it out; without one the
	// values are in table order.
	var target []int
	width := len(colNames)
	if len(stmt.Columns) > 0 {
		width = len(stmt.Columns)
		target = make([]int, len(colNames))
		for ti := range target {
			target[ti] = -1
		}
		for pos, name := range stmt.Columns {
			ti := slices.IndexFunc(colNames, func(cn string) bool { return strings.EqualFold(cn, name) })
			if ti < 0 {
				return nil, nil, fmt.Errorf("column %s does not exist in table %s", name, stmt.Table)
			}
			target[ti] = pos
		}
	}

	var rows [][]sqltypes.Value
	switch {
	case stmt.Query != nil:
		res, err := query(stmt.Query)
		if err != nil {
			return nil, nil, err
		}
		if len(res.Columns) != width {
			return nil, nil, fmt.Errorf("INSERT expects %d columns, query returned %d", width, len(res.Columns))
		}
		rows = res.Rows
	default:
		rows = carveRows(len(stmt.Rows), width)
		for ri, rowExprs := range stmt.Rows {
			if len(rowExprs) != width {
				return nil, nil, fmt.Errorf("INSERT expects %d values, got %d", width, len(rowExprs))
			}
			for i, e := range rowExprs {
				v, err := evalConstExpr(e)
				if err != nil {
					return nil, nil, err
				}
				rows[ri][i] = v
			}
		}
	}
	if target == nil {
		return table, rows, nil
	}
	// The source rows may be a query's, whose slice is not ours to change.
	full := carveRows(len(rows), len(colNames))
	for ri, src := range rows {
		for ti, pos := range target {
			full[ri][ti] = sqltypes.Null(table.ColTypes()[ti].Kind)
			if pos >= 0 {
				full[ri][ti] = src[pos]
			}
		}
	}
	return table, full, nil
}

// carveRows returns n rows of width values carved from one block, each
// capped at its width.
func carveRows(n, width int) [][]sqltypes.Value {
	block := make([]sqltypes.Value, n*width)
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = block[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// InsertRows bulk-inserts pre-built rows into a base table, bypassing
// SQL parsing (used by the benchmark harness to load large datasets).
func (s *Session) InsertRows(table string, rows [][]sqltypes.Value) error {
	_, err := s.insert(&wal.Record{Type: wal.RecInsert, Name: table, Rows: rows}, nil)
	return err
}

// insert applies an INSERT record under the mutation lock. want, when
// not nil, is the table its rows were prepared for: if a DROP or CREATE
// OR REPLACE has replaced it since, that DDL is logged already and an
// insert record after it would never replay, so the insert fails.
func (s *Session) insert(rec *wal.Record, want *catalog.BaseTable) (int, error) {
	defer s.lockDurable()()
	if want != nil {
		if table, ok := s.cat.Table(rec.Name); ok && table != want {
			return 0, fmt.Errorf("table %s was concurrently replaced", rec.Name)
		}
	}
	return s.apply(rec)
}

// constLiteral answers a literal, or a minus sign over a number, with the
// value the binder would give it. ok is false for anything else — and for
// a malformed DATE, which the planned path rejects in its own words.
func constLiteral(e ast.Expr) (v sqltypes.Value, ok bool) {
	switch e := e.(type) {
	case *ast.NumberLit:
		if e.IsInt {
			return sqltypes.NewInt(e.Int), true
		}
		return sqltypes.NewFloat(e.Float), true
	case *ast.StringLit:
		return sqltypes.NewString(e.Val), true
	case *ast.BoolLit:
		return sqltypes.NewBool(e.Val), true
	case *ast.NullLit:
		return sqltypes.Null(sqltypes.KindUnknown), true
	case *ast.DateLit:
		v, err := sqltypes.ParseDate(e.Val)
		return v, err == nil
	case *ast.Unary:
		if n, isNum := e.X.(*ast.NumberLit); isNum && e.Op == "-" {
			x, _ := constLiteral(n)
			v, err := sqltypes.Neg(x)
			return v, err == nil
		}
	}
	return sqltypes.Value{}, false
}

// evalConstExpr evaluates a constant expression for INSERT VALUES and
// EXECUTE arguments: a literal directly, anything else by wrapping it in
// a one-row query.
func evalConstExpr(e ast.Expr) (sqltypes.Value, error) {
	if v, ok := constLiteral(e); ok {
		return v, nil
	}
	node, err := binder.New(catalog.New()).BindQuery(&ast.Query{
		Body: &ast.Select{Items: []ast.SelectItem{{Expr: e, Alias: "v"}}},
	})
	if err != nil {
		return sqltypes.Value{}, err
	}
	rows, err := exec.Run(node, exec.DefaultSettings())
	if err != nil {
		return sqltypes.Value{}, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return sqltypes.Value{}, fmt.Errorf("INSERT value did not evaluate to a single value")
	}
	return rows[0][0], nil
}
