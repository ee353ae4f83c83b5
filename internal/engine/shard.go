// Shard-facing session surface: the engine entry points msqld exposes
// when it serves as one shard of a distributed topology. A coordinator
// (internal/dist) drives these through the /partial, /rows and /apply
// wire endpoints. The reads run inside the same withStmtEnv guard rail
// as every other statement, so KILL, timeouts, metrics, statement stats,
// and the slow-query log all see them; a replicated mutation is a
// record, applied as a statement's record is, not a statement.
package engine

import (
	"context"
	"fmt"

	"time"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
	"github.com/measures-sql/msql/internal/wal"
)

// RegisterVirtualTable installs (or replaces) a read-only virtual table
// backed by provider. Coordinators use it to publish topology state
// (msql_stats.shards) through the same SQL surface as the built-in
// introspection tables.
func (s *Session) RegisterVirtualTable(name string, cols []string, types []sqltypes.Type, provider func() [][]sqltypes.Value) error {
	return s.cat.RegisterVirtual(&catalog.VirtualTable{TableName: name, Cols: cols, Types: types, Provider: provider})
}

// PlanQuery plans a single query, whose placeholders take params,
// without executing it and returns the physical plan tree. A
// coordinator uses the shape of the plan — which tables are scanned,
// whether the root is a mergeable aggregate, whether subqueries appear
// — to pick a distributed execution path before any shard sees the
// statement. The plan comes from the session plan cache (cachedPlanFor),
// so a coordinator that re-issues one shape with new parameter values
// plans it once. Planning runs inside the usual statement guard rail,
// so coordinator-side planning shows up in msql_stats.statements like
// any other statement.
func (s *Session) PlanQuery(ctx context.Context, sql string, params []sqltypes.Value, ov *Overrides) (plan.Node, error) {
	var node plan.Node
	_, err := s.withStmtEnv(ctx, ov, stmtInfo{sql: oneLine(sql)}, func(env *stmtEnv) (*Result, error) {
		entry, _, _, _, err := s.cachedPlanFor(env, sql, paramKinds(params), nil)
		if err != nil {
			return nil, err
		}
		node = entry.node
		return &Result{Message: "planned"}, nil
	})
	if err != nil {
		return nil, err
	}
	return node, nil
}

// InsertRowsOf prepares the rows stmt inserts as execInsert does
// (insertRows; query runs an INSERT … SELECT's source) and returns them,
// not yet coerced, with the table's storage, whose CoerceRow coerces a
// row as the INSERT would; an error is the one the INSERT fails with.
func (s *Session) InsertRowsOf(stmt *ast.Insert, query func(*ast.Query) (*Result, error)) (*storage.Table, [][]sqltypes.Value, error) {
	table, rows, err := s.insertRows(stmt, query)
	if err != nil {
		return nil, nil, exec.Wrap(err, exec.CodeRuntime, exec.PhaseExecute)
	}
	return table.Data, rows, nil
}

// EvalConstExpr evaluates a constant expression the way INSERT VALUES
// does (wrapping it in a one-row query), for callers that need a
// literal's value outside a statement: a coordinator's lifted WHERE
// literals.
func EvalConstExpr(e ast.Expr) (sqltypes.Value, error) {
	return evalConstExpr(e)
}

// CatalogVersion returns the session's current catalog version: a
// deterministic count of applied mutations (durable recovery restores
// the pre-crash value). Coordinators use it as the compare-and-swap
// token that makes replicated mutations exactly-once.
func (s *Session) CatalogVersion() int64 { return s.cat.Version() }

// QueryParams runs one query, whose placeholders take params, on the
// plan the session plan cache holds for its text (cachedPlanFor), so
// statements of one shape with other values plan once. Unlike a
// prepared execution it keeps no result memo: a shard answering a
// coordinator's reads would hold a copy of each answer that only an
// unchanged binding at an unchanged data state could reuse.
func (s *Session) QueryParams(ctx context.Context, sql string, params []sqltypes.Value, ov *Overrides) (*Result, error) {
	return s.withStmtEnv(ctx, ov, stmtInfo{sql: oneLine(sql)}, func(env *stmtEnv) (*Result, error) {
		entry, _, _, planNs, err := s.cachedPlanFor(env, sql, paramKinds(params), nil)
		if err != nil {
			return nil, err
		}
		env.cfg.exec.Params = params
		env.cfg.exec.Pipeline = entry.pipe
		rows, _, err := s.execPlan(env, entry.node, planNs, false)
		if err != nil {
			return nil, err
		}
		return queryResult(entry.columns, entry.types, rows), nil
	})
}

// PartialAggregate plans sql, whose placeholders take params, through
// the session plan cache and runs its scan/filter/group phase,
// returning per-group partial aggregate states instead of final rows;
// with seq, each group also carries the MIN of that column of its rows.
// groups and aggs cross-check the plan shape (see exec.PartialAggregate).
func (s *Session) PartialAggregate(ctx context.Context, sql string, params []sqltypes.Value, seq string, groups, aggs int, ov *Overrides) (*exec.PartialResult, error) {
	var out *exec.PartialResult
	_, err := s.withStmtEnv(ctx, ov, stmtInfo{sql: oneLine(sql)}, func(env *stmtEnv) (*Result, error) {
		entry, _, _, planNs, err := s.cachedPlanFor(env, sql, paramKinds(params), nil)
		if err != nil {
			return nil, err
		}
		env.live.setPhase(phaseExecute)
		settings := env.cfg.exec
		settings.Stats = &env.counts
		settings.Tracer = env.tracer
		settings.Params = params
		start := time.Now()
		res, err := exec.PartialAggregate(env.ctx, entry.node, seq, groups, aggs, &settings)
		execNs := int64(time.Since(start))
		if err != nil {
			return nil, err
		}
		s.recordExec(env, len(res.Groups), planNs, execNs)
		env.span(exec.Span{Phase: "execute", Name: "partial", DurNs: execNs,
			Attrs: map[string]string{"groups": fmt.Sprintf("%d", len(res.Groups))}})
		out = res
		return &Result{Message: fmt.Sprintf("%d partial groups", len(res.Groups))}, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyCAS applies one mutation record, as the statement that made it
// applied it (apply), if and only if the catalog version equals expect;
// on success the version is expect+1. A version mismatch returns the
// current version and a nil result with ok=false — not an error — so
// callers can distinguish "already applied" (version is expect+1) from
// genuine divergence. Concurrent calls serialize on the session's CAS
// lock, making the check-then-apply atomic.
func (s *Session) ApplyCAS(rec *wal.Record, expect int64) (res *Result, version int64, ok bool, err error) {
	s.cas.Lock()
	defer s.cas.Unlock()
	if v := s.cat.Version(); v != expect {
		return nil, v, false, nil
	}
	unlock := s.lockDurable()
	n, err := s.apply(rec)
	unlock()
	if err != nil {
		return nil, s.cat.Version(), false, exec.Wrap(err, exec.CodeRuntime, exec.PhaseExecute)
	}
	return mutationResult(rec, n), s.cat.Version(), true, nil
}

// MutationRecord makes the record a CREATE TABLE, CREATE VIEW, DROP or
// TRUNCATE statement applies, or the error the statement fails with
// before it reaches the catalog: a coordinator ships the record to its
// shards.
func MutationRecord(stmt ast.Statement) (*wal.Record, error) {
	rec, err := mutationRecord(stmt)
	if err != nil {
		return nil, exec.Wrap(err, exec.CodeRuntime, exec.PhaseExecute)
	}
	return rec, nil
}
