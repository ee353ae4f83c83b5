// Prepared statements: PREPARE/EXECUTE/DEALLOCATE at the SQL level, a
// handle-based Prepare for the Go API, and a named registry for the
// wire protocol. All three execute through the session plan cache.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// Prepared is one prepared statement: the parsed query, its normalized
// text (the plan-cache key prefix), and the declared parameter types
// (empty means types are inferred from the arguments at EXECUTE time).
type Prepared struct {
	name    string
	sql     string
	query   *ast.Query
	nParams int
	types   []sqltypes.Kind
	// fp is the statement-stats fingerprint of the underlying query,
	// precomputed so per-execution tracking costs one map lookup.
	fp string
}

// NumParams returns the number of parameter placeholders.
func (p *Prepared) NumParams() int { return p.nParams }

// SQL returns the normalized statement text (parameters rendered $n).
func (p *Prepared) SQL() string { return p.sql }

// newPrepared builds a Prepared from a parsed query and its normalized
// text (ast.FormatQuery), resolving declared type names and, when the
// parameter types are fully known, binding the query once so definition
// errors surface at PREPARE time.
func (s *Session) newPrepared(name, sql string, q *ast.Query, nParams int, typeNames []string) (*Prepared, error) {
	p := &Prepared{name: name, sql: sql, query: q, nParams: nParams}
	p.fp = fingerprintQuery(q, nParams)
	if len(typeNames) > 0 {
		if len(typeNames) != nParams {
			return nil, fmt.Errorf("prepared statement declares %d parameter types but uses %d parameters", len(typeNames), nParams)
		}
		p.types = make([]sqltypes.Kind, len(typeNames))
		for i, tn := range typeNames {
			k := sqltypes.KindFromName(tn)
			if k == sqltypes.KindUnknown {
				return nil, fmt.Errorf("unknown type %s for parameter $%d", tn, i+1)
			}
			p.types[i] = k
		}
	}
	if nParams == 0 || len(p.types) > 0 {
		kinds := p.types
		if kinds == nil {
			kinds = []sqltypes.Kind{}
		}
		env := &stmtEnv{ctx: context.Background(), cfg: s.statementConfig(nil), tracer: s.tracer}
		if _, _, err := s.planQueryParams(env, q, kinds); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// preparedRegistry is the session's named prepared-statement namespace,
// shared by SQL PREPARE/EXECUTE and the wire protocol.
type preparedRegistry struct {
	mu    sync.Mutex
	stmts map[string]*Prepared
}

func newPreparedRegistry() *preparedRegistry {
	return &preparedRegistry{stmts: map[string]*Prepared{}}
}

func (r *preparedRegistry) get(name string) (*Prepared, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.stmts[name]
	return p, ok
}

func (r *preparedRegistry) put(p *Prepared, replace bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.stmts[p.name]; ok && !replace {
		return fmt.Errorf("prepared statement %s already exists", p.name)
	}
	r.stmts[p.name] = p
	return nil
}

func (r *preparedRegistry) drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.stmts[name]
	delete(r.stmts, name)
	return ok
}

func (r *preparedRegistry) clear() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.stmts)
	r.stmts = map[string]*Prepared{}
	return n
}

// execPrepareStmt handles SQL PREPARE name [(types)] AS query. The
// statement may have come in a script, which the prepared statement
// outlives: it keeps a copy of the name and a query parsed from its own
// formatted text, not strings of the script (DESIGN.md §4.7).
func (s *Session) execPrepareStmt(stmt *ast.Prepare) (*Result, error) {
	sql := ast.FormatQuery(stmt.Query)
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	p, err := s.newPrepared(strings.Clone(stmt.Name), sql, q, stmt.NParams, stmt.Types)
	if err != nil {
		return nil, err
	}
	if err := s.prepared.put(p, false); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("prepared %s", stmt.Name)}, nil
}

// execDeallocate handles DEALLOCATE name | DEALLOCATE ALL.
func (s *Session) execDeallocate(stmt *ast.Deallocate) (*Result, error) {
	if stmt.All {
		n := s.prepared.clear()
		return &Result{Message: fmt.Sprintf("deallocated %d prepared statements", n)}, nil
	}
	if !s.prepared.drop(stmt.Name) {
		return nil, fmt.Errorf("prepared statement %s does not exist", stmt.Name)
	}
	return &Result{Message: fmt.Sprintf("deallocated %s", stmt.Name)}, nil
}

// executeArgs evaluates EXECUTE argument expressions and coerces them
// to the declared parameter types, if any.
func (s *Session) executeArgs(p *Prepared, args []ast.Expr) ([]sqltypes.Value, error) {
	if len(args) != p.nParams {
		return nil, fmt.Errorf("prepared statement %s expects %d parameters, got %d", p.name, p.nParams, len(args))
	}
	vals := make([]sqltypes.Value, len(args))
	for i, e := range args {
		v, err := evalConstExpr(e)
		if err != nil {
			return nil, fmt.Errorf("parameter $%d: %w", i+1, err)
		}
		vals[i] = v
	}
	return coerceParams(p, vals)
}

// coerceParams casts argument values to the declared parameter types so
// that e.g. EXECUTE q(1) against PREPARE q (DOUBLE) caches and runs as
// a DOUBLE parameter.
func coerceParams(p *Prepared, vals []sqltypes.Value) ([]sqltypes.Value, error) {
	if len(vals) != p.nParams {
		return nil, fmt.Errorf("prepared statement expects %d parameters, got %d", p.nParams, len(vals))
	}
	if p.types == nil {
		return vals, nil
	}
	out := make([]sqltypes.Value, len(vals))
	for i, v := range vals {
		c, err := sqltypes.Cast(v, p.types[i])
		if err != nil {
			return nil, fmt.Errorf("parameter $%d: %w", i+1, err)
		}
		out[i] = c
	}
	return out, nil
}

// lookupPrepared fetches a named prepared statement or errors. An
// unknown name is a bind-class error (name resolution), so clients see
// HTTP 400, not 500.
func (s *Session) lookupPrepared(name string) (*Prepared, error) {
	p, ok := s.prepared.get(name)
	if !ok {
		return nil, exec.Wrap(fmt.Errorf("prepared statement %s does not exist", name), exec.CodeBind, exec.PhaseBind)
	}
	return p, nil
}

// execExecuteStmt handles SQL EXECUTE name (args).
func (s *Session) execExecuteStmt(env *stmtEnv, stmt *ast.ExecuteStmt) (*Result, error) {
	p, err := s.lookupPrepared(stmt.Name)
	if err != nil {
		return nil, err
	}
	vals, err := s.executeArgs(p, stmt.Args)
	if err != nil {
		return nil, err
	}
	return s.execPrepared(env, p, vals)
}

// preparedPlan resolves the plan for one execution of p with the given
// parameter values (see cachedPlanFor).
func (s *Session) preparedPlan(env *stmtEnv, p *Prepared, vals []sqltypes.Value) (entry *cachedPlan, cached bool, key string, planNs int64, err error) {
	return s.cachedPlanFor(env, p.sql, paramKinds(vals), p)
}

// paramKinds lists the kinds of parameter values, the plan-cache key's
// parameter signature.
func paramKinds(vals []sqltypes.Value) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, len(vals))
	for i, v := range vals {
		kinds[i] = v.K
	}
	return kinds
}

// cachedPlanFor is the one plan-cache lookup: the key is the query's
// text + parameter kinds + settings, and a hit does no parsing,
// fingerprinting or binding. On a miss it plans p's query or, with p
// nil, parses sql first (its parameter count must match kinds). Freshly
// planned entries are inserted unless the plan is volatile or the cache
// is disabled (both counted as bypasses). A text statement's stats are
// retargeted to its fingerprint; a prepared one's caller does that.
func (s *Session) cachedPlanFor(env *stmtEnv, sql string, kinds []sqltypes.Kind, p *Prepared) (entry *cachedPlan, cached bool, key string, planNs int64, err error) {
	key = planCacheKey(sql, kinds, &env.cfg)
	schema := s.cat.SchemaVersion()
	useCache := s.plans.enabled()
	if useCache {
		if e := s.plans.lookup(key, schema); e != nil {
			if p == nil {
				s.retargetStats(env, e.fp)
			}
			return e, true, key, 0, nil
		}
	} else {
		s.plans.noteBypass()
	}
	q, fp := (*ast.Query)(nil), ""
	if p != nil {
		q, fp = p.query, p.fp
	} else {
		var n int
		if err := s.parseTraced(env.tracer, sql, func() (int, error) {
			var err error
			q, n, err = parser.ParseQueryWithParams(sql)
			return 1, err
		}); err != nil {
			return nil, false, key, 0, err
		}
		if len(kinds) == 0 {
			// No parameters: the binder rejects any placeholder in its
			// own words.
			kinds = nil
		} else if n != len(kinds) {
			return nil, false, key, 0, exec.Wrap(fmt.Errorf("statement has %d parameters, got %d", n, len(kinds)), exec.CodeBind, exec.PhaseBind)
		}
		fp = fingerprintQuery(q, n)
		s.retargetStats(env, fp)
	}
	node, ns, err := s.planQueryParams(env, q, kinds)
	if err != nil {
		return nil, false, key, 0, err
	}
	columns, types := outputColumns(node)
	e := &cachedPlan{key: key, schema: schema, node: node, pipe: exec.NewPipeline(),
		columns: columns, types: types, sources: planSources(node), fp: fp}
	if useCache {
		// A plan containing RANDOM() is replanned per execution so that
		// constant folding and pipeline reuse cannot freeze its per-row
		// results.
		if plan.Deterministic(node) {
			s.plans.insert(e)
		} else {
			s.plans.noteBypass()
		}
	}
	return e, false, key, ns, nil
}

// retargetStats points the statement's stats at fingerprint fp, so a
// planned or prepared execution aggregates with the equivalent direct
// query.
func (s *Session) retargetStats(env *stmtEnv, fp string) {
	if e := s.stmts.entry(fp); e != nil {
		env.stats = e
	}
}

// execPrepared runs one prepared execution end to end: plan-cache
// lookup (or plan+insert), parameter injection via Settings.Params, and
// pipeline attachment, annotating the execute span with cached= and
// cache_key=. Executions of a cache-resident entry with a previously
// seen parameter binding are answered from the entry's result memo
// without touching the executor; such an execution is a query that
// took no plan and no exec time.
func (s *Session) execPrepared(env *stmtEnv, p *Prepared, vals []sqltypes.Value) (*Result, error) {
	s.retargetStats(env, p.fp)
	entry, cached, key, planNs, err := s.preparedPlan(env, p, vals)
	if err != nil {
		return nil, err
	}
	env.cfg.exec.Params = vals
	env.cfg.exec.Pipeline = entry.pipe
	env.execAttrs = map[string]string{"cached": fmt.Sprintf("%t", cached), "cache_key": cacheKeyDigest(key)}
	var (
		mk string
		at []storage.State
	)
	if cached {
		mk, at = paramMemoKey(vals), entry.dataStates()
		if rows, ok := entry.memoLookup(mk, at); ok {
			s.plans.noteMemoHit()
			env.execAttrs["memo"] = "true"
			s.lastMu.Lock()
			s.lastStats = exec.Stats{}
			s.lastMu.Unlock()
			s.metrics.recordQuery(env.cfg.strategy, len(rows), exec.Stats{}, 0, 0)
			if e := env.stats; e != nil {
				e.rows.Add(int64(len(rows)))
				e.memoHits.Add(1)
			}
			return queryResult(entry.columns, entry.types, rows), nil
		}
	}
	rows, _, err := s.execPlan(env, entry.node, planNs, false)
	if err != nil {
		return nil, err
	}
	if cached {
		entry.memoStore(mk, at, rows)
	}
	return queryResult(entry.columns, entry.types, rows), nil
}

// explainExecute renders EXPLAIN [ANALYZE] EXECUTE: the (possibly
// cached) plan tree, plus a Cache: footer reporting whether this
// execution hit the plan cache and under which key.
func (s *Session) explainExecute(env *stmtEnv, ex *ast.ExecuteStmt, analyze bool) (*Result, error) {
	p, err := s.lookupPrepared(ex.Name)
	if err != nil {
		return nil, err
	}
	vals, err := s.executeArgs(p, ex.Args)
	if err != nil {
		return nil, err
	}
	entry, cached, key, planNs, err := s.preparedPlan(env, p, vals)
	if err != nil {
		return nil, err
	}
	cacheLine := fmt.Sprintf("Cache: cached=%t key=%s\n", cached, cacheKeyDigest(key))
	if !analyze {
		return &Result{Message: plan.ExplainTree(entry.node) + cacheLine}, nil
	}
	env.cfg.exec.Params = vals
	env.cfg.exec.Pipeline = entry.pipe
	env.execAttrs = map[string]string{"cached": fmt.Sprintf("%t", cached), "cache_key": cacheKeyDigest(key)}
	rows, prof, err := s.execPlan(env, entry.node, planNs, true)
	if err != nil {
		return nil, err
	}
	msg := plan.ExplainAnalyzeTree(entry.node, prof) + analyzeTotals(env, len(rows)) + cacheLine
	return &Result{Message: msg}, nil
}

// PreparedStmt is a handle-based prepared statement for the Go API; it
// is not in the session's named registry, so handles owned by different
// callers cannot collide.
type PreparedStmt struct {
	sess *Session
	p    *Prepared
}

// Prepare parses one parameterized query ($n or ? placeholders) and
// returns a reusable handle. Executions share the session plan cache,
// so the first ExecuteContext plans and later ones reuse the compiled
// pipeline.
func (s *Session) Prepare(sql string) (*PreparedStmt, error) {
	var (
		q *ast.Query
		n int
	)
	err := s.parseSpanned(sql, func() (int, error) {
		var err error
		q, n, err = parser.ParseQueryWithParams(sql)
		return 1, err
	})
	if err != nil {
		return nil, err
	}
	p, err := s.newPrepared("", ast.FormatQuery(q), q, n, nil)
	if err != nil {
		return nil, err
	}
	return &PreparedStmt{sess: s, p: p}, nil
}

// NumParams returns the number of parameter placeholders.
func (ps *PreparedStmt) NumParams() int { return ps.p.nParams }

// ExecuteContext runs the prepared statement with the given parameter
// values under the same guard rail as ExecStatementContext.
func (ps *PreparedStmt) ExecuteContext(ctx context.Context, args []sqltypes.Value, ov *Overrides) (*Result, error) {
	s := ps.sess
	info := stmtInfo{sql: oneLine(ps.p.sql), fingerprint: ps.p.fp}
	return s.withStmtEnv(ctx, ov, info, func(env *stmtEnv) (*Result, error) {
		vals, err := coerceParams(ps.p, args)
		if err != nil {
			return nil, err
		}
		return s.execPrepared(env, ps.p, vals)
	})
}

// Execute runs the prepared statement with background context.
func (ps *PreparedStmt) Execute(args ...sqltypes.Value) (*Result, error) {
	return ps.ExecuteContext(context.Background(), args, nil)
}

// PrepareNamed registers (or replaces) a named prepared statement for
// the wire protocol, returning its parameter count. Unlike SQL PREPARE,
// re-preparing an existing name replaces it, so clients can re-prepare
// after reconnecting without an explicit DEALLOCATE.
func (s *Session) PrepareNamed(name, sql string) (int, error) {
	var (
		q *ast.Query
		n int
	)
	err := s.parseSpanned(sql, func() (int, error) {
		var err error
		q, n, err = parser.ParseQueryWithParams(sql)
		return 1, err
	})
	if err != nil {
		return 0, err
	}
	p, err := s.newPrepared(name, ast.FormatQuery(q), q, n, nil)
	if err != nil {
		return 0, err
	}
	if err := s.prepared.put(p, true); err != nil {
		return 0, err
	}
	return n, nil
}

// ExecuteNamed runs a named prepared statement with pre-built parameter
// values (the wire protocol path).
func (s *Session) ExecuteNamed(ctx context.Context, name string, args []sqltypes.Value, ov *Overrides) (*Result, error) {
	p, err := s.lookupPrepared(name)
	if err != nil {
		return nil, err
	}
	info := stmtInfo{sql: oneLine(p.sql), fingerprint: p.fp}
	return s.withStmtEnv(ctx, ov, info, func(env *stmtEnv) (*Result, error) {
		vals, err := coerceParams(p, args)
		if err != nil {
			return nil, err
		}
		return s.execPrepared(env, p, vals)
	})
}

// DeallocateNamed removes a named prepared statement, reporting whether
// it existed.
func (s *Session) DeallocateNamed(name string) bool { return s.prepared.drop(name) }

// SetPlanCacheSize changes the plan-cache entry cap; 0 disables caching
// and clears the cache. Safe to call while queries are in flight.
func (s *Session) SetPlanCacheSize(n int) { s.plans.setSize(n) }

// PlanCacheCountersSnapshot returns the plan cache's counters.
func (s *Session) PlanCacheCountersSnapshot() PlanCacheCounters { return s.plans.counters() }
