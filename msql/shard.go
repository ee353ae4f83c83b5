package msql

// Distributed-execution surface: the DB methods a shard server
// (internal/server) and a coordinator (internal/dist) need beyond the
// plain query API — parameterized and partial reads, mutation records
// and their version-guarded application, and the shard-health
// metrics/virtual-table hooks.

import (
	"context"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/storage"
	"github.com/measures-sql/msql/internal/wal"
)

// PartialResult is a shard's partial-aggregation answer: per-group
// aggregate states ready to Merge with other shards' partials.
type PartialResult = exec.PartialResult

// PartialGroup is one group of a PartialResult.
type PartialGroup = exec.PartialGroup

// PlanQuery plans a single query, whose placeholders ($n or ?) take
// params, without executing it. The plan comes from the plan cache, so
// one shape re-issued with new parameter values is planned once. The
// returned tree is the engine's internal plan representation — usable
// only inside this module; coordinators walk it to classify queries for
// distributed execution.
func (db *DB) PlanQuery(ctx context.Context, sql string, params []Value, opts ...Option) (plan.Node, error) {
	return db.session.PlanQuery(ctx, sql, params, overrides(opts))
}

// CatalogVersion returns the catalog's mutation counter. Every DDL and
// INSERT advances it by exactly one, and durable recovery restores the
// pre-crash value, so coordinators use it as the compare-and-swap token
// for exactly-once replicated mutations.
func (db *DB) CatalogVersion() int64 { return db.session.CatalogVersion() }

// QueryParams runs one query, whose placeholders ($n or ?) take
// params, on the plan the plan cache holds for its text: statements of
// one shape with other values are planned once, as executions of one
// prepared statement are.
func (db *DB) QueryParams(ctx context.Context, sql string, params []Value, opts ...Option) (*Result, error) {
	return db.session.QueryParams(ctx, sql, params, overrides(opts))
}

// PartialAggregate plans sql, whose placeholders take params, through
// the plan cache and runs its scan/filter/group phase, returning
// per-group partial aggregate states instead of final rows; with seq,
// the name of a column the aggregate reads, each group carries the MIN
// of it as one state more, last. groups/aggs cross-check the plan
// shape; a query whose shape cannot be merged across shards fails with
// a structured BIND error wrapping exec.ErrPartialUnsupported.
func (db *DB) PartialAggregate(ctx context.Context, sql string, params []Value, seq string, groups, aggs int, opts ...Option) (*PartialResult, error) {
	return db.session.PartialAggregate(ctx, sql, params, seq, groups, aggs, overrides(opts))
}

// InsertRowsOf prepares the rows stmt inserts as the DB's own INSERT
// does, without inserting them: a coordinator partitions them across
// shards. See engine.Session.InsertRowsOf.
func (db *DB) InsertRowsOf(stmt *ast.Insert, query func(*ast.Query) (*Result, error)) (*storage.Table, [][]Value, error) {
	return db.session.InsertRowsOf(stmt, query)
}

// MutationRecord makes the record a CREATE TABLE, CREATE VIEW, DROP or
// TRUNCATE statement applies, or the error the statement fails with
// before it reaches the catalog: a coordinator logs the record and ships
// it to its shards' ApplyCAS.
func (db *DB) MutationRecord(stmt ast.Statement) (*wal.Record, error) {
	return engine.MutationRecord(stmt)
}

// ApplyCAS applies one mutation record, as the statement that made it
// applies it, iff the catalog version equals expect; on success the
// returned version is expect+1. A version mismatch is not an error: ok
// is false and version reports the current value, letting a coordinator
// that lost an ack distinguish "already applied" (version == expect+1)
// from divergence.
func (db *DB) ApplyCAS(rec *wal.Record, expect int64) (res *Result, version int64, ok bool, err error) {
	return db.session.ApplyCAS(rec, expect)
}

// ShardCounters is the distributed coordinator's slice of a metrics
// snapshot: scatter/retry/hedge/failover/breaker counters.
type ShardCounters = engine.ShardCounters

// RegisterShardMetrics installs (or with nil removes) a source of
// shard-coordination counters; Metrics() calls it so the failure
// envelope shows up in the same JSON and Prometheus output as the
// engine's own counters.
func (db *DB) RegisterShardMetrics(fn func() ShardCounters) {
	db.session.Metrics().SetShardSource(fn)
}

// RegisterVirtualTable installs (or replaces) a read-only virtual table
// backed by provider, queryable like the built-in msql_stats.* tables.
func (db *DB) RegisterVirtualTable(name string, cols []string, types []Type, provider func() [][]Value) error {
	return db.session.RegisterVirtualTable(name, cols, types, provider)
}
