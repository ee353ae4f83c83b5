package dist

// The mutation path: every mutation is a record (wal.Record), the one a
// single node logs for it. DDL records broadcast to every shard, an
// INSERT's rows are partitioned by the partition column's hash into one
// record per shard, and each record is logged, as its encoded bytes, in
// a per-shard replay log before any endpoint sees it; an endpoint
// applies it with the engine's own apply, as a single node applied the
// statement. An INSERT's rows are the engine's: the local mirror of the
// schema prepares them with the engine's own INSERT
// (msql.DB.InsertRowsOf) and its table coerces them, so rows and errors
// are a single node's. Replication to an endpoint is a compare-and-swap
// on its catalog version — entry i applies only at version i — which
// makes application exactly-once even across lost acks (a transport
// error is resolved by probing /catalog: the entry landed iff the
// version advanced) and makes a restarted, empty endpoint
// self-identifying (its version fell below the cursor, so the log
// replays from where it stands). TRUNCATE of a sharded table is refused:
// a shard's rows are append-only, which the global insertion sequence
// relies on.

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/wal"
	"github.com/measures-sql/msql/msql"
)

func bindErr(format string, args ...any) error {
	return &exec.Error{Code: exec.CodeBind, Phase: exec.PhaseBind, Pos: -1, Err: fmt.Errorf(format, args...)}
}

// runOne executes one statement (row-producing or not) on db and
// returns its result.
func runOne(ctx context.Context, db *msql.DB, sql string) (*msql.Result, error) {
	results, err := db.RunContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return &msql.Result{Message: "ok"}, nil
	}
	return results[len(results)-1], nil
}

// execStmt applies one mutation statement: validate against the local
// mirrors, log per shard, then push to every endpoint of every affected
// shard. A shard counts as reached when at least one of its endpoints
// acknowledged; shards with no reachable endpoint are reported in a
// structured unavailability error, and the logged entry replays to them
// on rejoin.
func (c *Coordinator) execStmt(ctx context.Context, stmt ast.Statement, reqID string) (*msql.Result, error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	switch s := stmt.(type) {
	case *ast.CreateTable:
		return c.execCreateTable(ctx, s, reqID)
	case *ast.CreateView, *ast.Drop:
		return c.execSchemaChange(ctx, stmt, reqID)
	case *ast.Insert:
		return c.execInsert(ctx, s, reqID)
	case *ast.Truncate:
		if _, ok := c.meta(s.Table); ok {
			return nil, bindErr("TRUNCATE of sharded table %s is not supported: sharded tables are append-only", s.Table)
		}
	}
	// Session statements (SET, KILL, PREPARE, ...) act on the
	// coordinator's own session, as does a TRUNCATE of no sharded table,
	// which fails there as on a single node.
	return runOne(ctx, c.local, ast.FormatStatement(stmt))
}

// execCreateTable creates s on the coordinator and ships its record, with
// the sequence column appended, to every shard.
func (c *Coordinator) execCreateTable(ctx context.Context, s *ast.CreateTable, reqID string) (*msql.Result, error) {
	if slices.ContainsFunc(s.Cols, func(col ast.ColumnDef) bool { return lower(col.Name) == catalog.SequenceColumn }) {
		return nil, bindErr("column name %q is reserved for distributed execution", catalog.SequenceColumn)
	}
	rec, err := c.local.MutationRecord(s)
	if err != nil {
		return nil, err
	}
	// The name is copied: s.Name may be a substring of a whole script.
	meta := &tableMeta{name: strings.Clone(s.Name), pcol: 0}
	if want, ok := c.cfg.PartitionCols[lower(s.Name)]; ok {
		meta.pcol = slices.IndexFunc(rec.Cols, func(col string) bool { return lower(col) == lower(want) })
		if meta.pcol < 0 {
			return nil, bindErr("partition column %q not found in table %s", want, s.Name)
		}
	}
	meta.pkind = rec.Types[meta.pcol].Kind
	res, err := runOne(ctx, c.local, ast.FormatStatement(s))
	if err != nil {
		return nil, err
	}
	rec.Cols = append(rec.Cols, catalog.SequenceColumn)
	rec.Types = append(rec.Types, sqltypes.Type{Kind: sqltypes.KindInt})
	c.mu.Lock()
	c.tables[lower(s.Name)] = meta
	c.mu.Unlock()
	return res, c.broadcast(ctx, rec, reqID)
}

func (c *Coordinator) execSchemaChange(ctx context.Context, stmt ast.Statement, reqID string) (*msql.Result, error) {
	rec, err := c.local.MutationRecord(stmt)
	if err != nil {
		return nil, err
	}
	res, err := runOne(ctx, c.local, ast.FormatStatement(stmt))
	if err != nil {
		return nil, err
	}
	if d, ok := stmt.(*ast.Drop); ok && d.Kind == "TABLE" {
		c.mu.Lock()
		delete(c.tables, lower(d.Name))
		c.mu.Unlock()
	}
	return res, c.broadcast(ctx, rec, reqID)
}

// execInsert prepares s's rows as the engine's own INSERT does, on the
// local mirror of the schema — an INSERT … SELECT's source runs through
// the coordinator itself, as it may read sharded tables — so its rows
// and its errors are a single node's. Each row is coerced by the table's
// own coercion, given the next global sequence, and logged, in one
// INSERT record per shard, to the shard its partition value hashes to.
func (c *Coordinator) execInsert(ctx context.Context, s *ast.Insert, reqID string) (*msql.Result, error) {
	// An INSERT does not record whether its source holds placeholders,
	// so the source's literals stay.
	table, rows, err := c.local.InsertRowsOf(s, func(q *ast.Query) (*msql.Result, error) {
		return c.query(ctx, q, false, reqID)
	})
	if err != nil {
		return nil, err
	}
	meta, ok := c.meta(s.Table)
	if !ok {
		return nil, bindErr("unknown table %s", s.Table)
	}
	// Each row is coerced into a row with room for its sequence.
	shardRows := make([][]sqltypes.Value, len(rows))
	for i, row := range rows {
		if shardRows[i], err = table.CoerceRow(make([]sqltypes.Value, 0, len(row)+1), row); err != nil {
			return nil, exec.Wrap(err, exec.CodeRuntime, exec.PhaseExecute)
		}
	}
	batches := make([][][]sqltypes.Value, len(c.shards))
	c.mu.Lock()
	for _, row := range shardRows {
		idx := c.shardFor(row[meta.pcol])
		batches[idx] = append(batches[idx], append(row, sqltypes.NewInt(c.seq)))
		c.seq++
	}
	c.mu.Unlock()

	var touched []*shard
	for idx, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		sh := c.shards[idx]
		sh.log.append(wal.EncodePayload(&wal.Record{Type: wal.RecInsert, Name: meta.name, Rows: batch}))
		touched = append(touched, sh)
	}
	if err := c.push(ctx, touched, reqID); err != nil {
		return nil, err
	}
	return &msql.Result{Message: fmt.Sprintf("inserted %d rows", len(rows))}, nil
}

// shardFor hashes a coerced partition value's canonical encoding, in
// which -0.0 is 0.0, as `=` holds them. The FNV digest gets a 64-bit
// avalanche finalizer: raw FNV modulo a small (especially power-of-two)
// shard count collapses onto a few residues for dense integer keys,
// which would leave shards empty.
func (c *Coordinator) shardFor(v sqltypes.Value) int {
	if v.K == sqltypes.KindFloat && !v.Null && v.F() == 0 {
		v = sqltypes.NewFloat(0)
	}
	h := fnv.New64a()
	h.Write(sqltypes.AppendValue(nil, v))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(len(c.shards)))
}

// broadcast logs rec on every shard and pushes.
func (c *Coordinator) broadcast(ctx context.Context, rec *wal.Record, reqID string) error {
	m := wal.EncodePayload(rec)
	for _, sh := range c.shards {
		sh.log.append(m)
	}
	return c.push(ctx, c.shards, reqID)
}

// push replicates the logs of shards concurrently, once each has logged
// its entry; shards with no reachable endpoint are reported as
// unavailable (their entries replay on rejoin).
func (c *Coordinator) push(ctx context.Context, shards []*shard, reqID string) error {
	failed := map[int]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			if err := c.pushShard(ctx, sh, reqID); err != nil {
				mu.Lock()
				failed[sh.idx] = err
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	if len(failed) > 0 {
		c.metrics.shardErrors.Add(1)
		return unavailable(failed)
	}
	return nil
}

// pushShard replicates the shard's log to every endpoint; the shard is
// reached when at least one endpoint is fully synced. Endpoints that
// fail keep their cursor and are repaired on a later push, a query-time
// sync, or a breaker half-open probe.
func (c *Coordinator) pushShard(ctx context.Context, sh *shard, reqID string) error {
	var firstErr error
	okCount := 0
	for _, ep := range sh.endpoints {
		if !ep.br.Allow() {
			continue
		}
		if err := c.syncEndpoint(ctx, sh, ep, reqID); err != nil {
			ep.br.Failure(err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ep.br.Success()
		okCount++
	}
	if okCount == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("all %d endpoints have open circuit breakers", len(sh.endpoints))
		}
		return fmt.Errorf("shard %d: %w", sh.idx, firstErr)
	}
	return nil
}

// syncEndpoint replays the shard log tail to ep under the CAS
// discipline. It resolves lost acks by probing the catalog version, and
// rewinds the cursor when the endpoint reports a version below it
// (a restarted endpoint that lost state).
func (c *Coordinator) syncEndpoint(ctx context.Context, sh *shard, ep *endpoint, reqID string) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	const maxAttemptsPerEntry = 4
	attempts := 0
	var open openSegment
	for {
		n := sh.log.len()
		if ep.applied >= n {
			return nil
		}
		m, err := sh.log.entry(ep.applied, &open)
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
		expect := int64(ep.applied)
		v, applied, err := ep.cli.Apply(ctx, m, expect, reqID)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			// Lost ack: did it land? The catalog version answers
			// unambiguously.
			info, perr := ep.cli.Catalog(ctx)
			if perr != nil {
				return fmt.Errorf("applying log entry %d: %w", ep.applied, err)
			}
			v, applied = info.Version, false
		}
		switch {
		case applied, v == expect+1:
			ep.applied++
			attempts = 0
		case v < expect:
			// The endpoint lost state (restart). Its version counts the
			// mutations it still holds — rewind and replay the tail.
			ep.applied = int(v)
			attempts = 0
		case v == expect:
			// Transport failed and the probe shows the entry did not
			// land: try the same entry again, boundedly.
			attempts++
			if attempts >= maxAttemptsPerEntry {
				return fmt.Errorf("applying log entry %d: %w", ep.applied, err)
			}
		default:
			return fmt.Errorf("shard %d endpoint %s diverged: at catalog version %d, expected at most %d",
				sh.idx, ep.url, v, expect+1)
		}
	}
}

// rewindAndSync handles a catalog-version mismatch reported by a read:
// the endpoint is at a different version than our cursor says, most
// likely because it restarted and lost state after the cursor had
// caught up (so the CAS replay loop, which only runs while entries are
// pending, never got a chance to notice). Probe the authoritative
// version, rewind the cursor to it, and replay the tail.
func (c *Coordinator) rewindAndSync(ctx context.Context, sh *shard, ep *endpoint, reqID string) error {
	// Probe under the cursor's lock: a version read before another
	// reader's replay and applied after it would rewind the cursor below
	// an endpoint that has caught up, which reads as divergence forever.
	ep.mu.Lock()
	info, err := ep.cli.Catalog(ctx)
	if err == nil && int(info.Version) < ep.applied {
		ep.applied = int(info.Version)
	}
	ep.mu.Unlock()
	if err != nil {
		return err
	}
	return c.syncEndpoint(ctx, sh, ep, reqID)
}

// ensureSynced fast-paths the common case (cursor already at the log
// head) and otherwise replays the tail before a read.
func (c *Coordinator) ensureSynced(ctx context.Context, sh *shard, ep *endpoint, reqID string) error {
	if int(ep.version()) >= sh.log.len() {
		return nil
	}
	return c.syncEndpoint(ctx, sh, ep, reqID)
}
