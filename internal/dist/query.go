package dist

// Query classification and the four execution paths, both read off the
// one plan the coordinator caches for a statement's shape. Every path
// is bit-identical to a single-node session running the same
// statements, since a shard's tables differ from the user's only by the
// sequence column, which `*` never expands: routed queries run whole on
// the one partition that provably contains every row any scan of the
// plan reads; scattered aggregations send the statement itself and
// merge only aggregates whose states merge exactly however the shards
// interleave a group's rows, in the executor's own grouping table,
// ordering per-group partials by the global insertion sequence so group
// output order and key values match the oracle; and the gather fallback
// reads the tables' rows with the sequence column, orders them by it
// and runs the coordinator's own plan of the statement over them. Rows
// and partial tables cross from a shard as one binary frame, so every
// value keeps its kind exactly.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
	"github.com/measures-sql/msql/internal/wire"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// RunContext executes sql (one or more statements) across the topology
// and returns one result per statement. Of opts it honours the request
// ID — propagated to every shard call as X-Request-Id; generated when
// absent — and the timeout, which bounds the whole script.
func (c *Coordinator) RunContext(ctx context.Context, sql string, opts ...msql.Option) ([]*msql.Result, error) {
	var ov engine.Overrides
	for _, o := range opts {
		o(&ov)
	}
	reqID := ov.RequestID
	if reqID == "" {
		reqID = c.newRequestID()
	}
	if ov.Timeout != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *ov.Timeout)
		defer cancel()
	}
	stmts, err := parser.ParseStatements(sql)
	if err != nil {
		return nil, err
	}
	var out []*msql.Result
	for _, stmt := range stmts {
		var res *msql.Result
		if qs, ok := stmt.(*ast.QueryStmt); ok {
			res, err = c.query(ctx, qs.Query, qs.NParams == 0, reqID)
		} else {
			res, err = c.execStmt(ctx, stmt, reqID)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Query executes sql and returns the last statement's result.
func (c *Coordinator) Query(ctx context.Context, sql string) (*msql.Result, error) {
	res, err := c.RunContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return &msql.Result{Message: "ok"}, nil
	}
	return res[len(res)-1], nil
}

// Exec executes sql, discarding results.
func (c *Coordinator) Exec(ctx context.Context, sql string) error {
	_, err := c.RunContext(ctx, sql)
	return err
}

// MustExec executes sql and panics on error (test/bootstrap helper).
func (c *Coordinator) MustExec(sql string) {
	if err := c.Exec(context.Background(), sql); err != nil {
		panic(err)
	}
}

// query executes one query, picking the cheapest safe path. When
// liftable — q has no placeholders of its own, which no caller here
// could give values — it is planned as its shape (ast.Lift), its WHERE
// literals the shape's parameters, and the local plan comes from the
// plan cache under the shape's text, so statements of one shape plan
// once, on the coordinator and on every shard, and the path is read off
// that plan.
func (c *Coordinator) query(ctx context.Context, q *ast.Query, liftable bool, reqID string) (*msql.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.QueryTimeout)
	defer cancel()

	st := shape{q: q}
	if liftable {
		if lq, lits := ast.Lift(q, 0); lits != nil {
			params := make([]msql.Value, len(lits))
			for i, lit := range lits {
				v, err := engine.EvalConstExpr(lit)
				if err != nil {
					// A malformed DATE: the literal text is planned, and
					// the binder rejects it in its own words.
					params = nil
					break
				}
				params[i] = v
			}
			if params != nil {
				st = shape{q: lq, params: params}
			}
		}
	}
	st.sql = ast.FormatQuery(st.q)
	node, err := c.local.PlanQuery(ctx, st.sql, st.params)
	if err != nil && st.params != nil {
		// Lifting only saves planning: whatever the lifted form does not
		// plan, the literal statement answers in its own words.
		st = shape{q: q, sql: ast.FormatQuery(q)}
		node, err = c.local.PlanQuery(ctx, st.sql, nil)
	}
	if err != nil {
		return nil, err
	}
	sharded := c.shardSources(node)
	if len(sharded) == 0 {
		return c.local.QueryParams(ctx, st.sql, st.params)
	}
	if idx, ok := c.route(st, node, sharded); ok {
		return c.routed(ctx, idx, st, node, reqID)
	}
	if agg, ok := scatterShape(node); ok {
		return c.scatter(ctx, st, node, agg, reqID)
	}
	return c.gather(ctx, st, node, sharded, reqID)
}

// shape is a query as it is planned: its shape (ast.Lift) with the
// lifted values, or the literal query with none. sql is its text, the
// key the local and shard plan caches file it under.
type shape struct {
	q      *ast.Query
	sql    string
	params []msql.Value
}

// shardSources maps every source of a sharded table the plan reads —
// by a Scan or through a context link, looking through view expansions
// and subquery plans — to the table's record.
func (c *Coordinator) shardSources(node plan.Node) map[plan.RowSource]*tableMeta {
	out := map[plan.RowSource]*tableMeta{}
	c.mu.Lock()
	defer c.mu.Unlock()
	add := func(src plan.RowSource) {
		if meta, ok := c.tables[lower(src.Name())]; ok {
			out[src] = meta
		}
	}
	plan.Walk(node, func(n plan.Node) {
		switch n := n.(type) {
		case *plan.Scan:
			add(n.Source)
		case *plan.LinkRead:
			if n.Link.Table != nil {
				add(n.Link.Table)
			}
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// Routed execution (single-shard)

// route returns the one shard that holds every row node reads, when
// there is one: every Scan in the plan — measure expansions and
// subqueries included — reads the one sharded table directly under a
// Filter whose top-level conjunct pins the partition column to a
// parameter or literal, and every pin hashes to that shard.
func (c *Coordinator) route(st shape, node plan.Node, sharded map[plan.RowSource]*tableMeta) (int, bool) {
	if len(sharded) != 1 {
		return 0, false
	}
	var src plan.RowSource
	var meta *tableMeta
	for src, meta = range sharded {
	}
	idx, scans, pinned := -1, 0, 0
	plan.Walk(node, func(n plan.Node) {
		switch n := n.(type) {
		case *plan.Scan:
			scans++
		case *plan.Filter:
			if scan, ok := n.Input.(*plan.Scan); ok && scan.Source == src {
				if i, ok := c.pin(n.Pred, meta, st.params); ok && (idx < 0 || i == idx) {
					idx = i
					pinned++
				}
			}
		}
	})
	return idx, idx >= 0 && pinned == scans
}

// pin returns the shard of the partition a top-level conjunct of pred,
// a filter over the table's Scan, pins: partition column = parameter or
// literal.
func (c *Coordinator) pin(pred plan.Expr, meta *tableMeta, params []msql.Value) (int, bool) {
	for _, conj := range plan.SplitKeyTerms(pred) {
		k := conj.Key
		if k == nil || len(k.Guards) > 0 {
			continue
		}
		if col, ok := k.Inner.(*plan.ColRef); !ok || col.Index != meta.pcol {
			continue
		}
		var v msql.Value
		switch o := k.Outer.(type) {
		case *plan.Param:
			v = params[o.Index]
		case *plan.Lit:
			v = o.Val
		default:
			continue
		}
		if cv, err := storage.Coerce(v, meta.pkind); err == nil {
			return c.shardFor(cv), true
		}
	}
	return 0, false
}

// routed runs st whole on shard idx; node, the statement's local plan,
// names and types the columns.
func (c *Coordinator) routed(ctx context.Context, idx int, st shape, node plan.Node, reqID string) (*msql.Result, error) {
	rows, err := c.readRows(ctx, idx, "route", st.sql, wire.EncodeParams(st.params), reqID)
	if err != nil {
		return nil, c.shardFailure(ctx, map[int]error{idx: err})
	}
	return planResult(node, rows), nil
}

// readRows runs sql, whose placeholders take params, on shard idx
// (/rows) under the failure envelope, name labelling its span. A frame
// that does not decode is the endpoint's fault, as an undecodable reply
// is.
func (c *Coordinator) readRows(ctx context.Context, idx int, name, sql string, params []client.Param, reqID string) ([][]msql.Value, error) {
	sh := c.shards[idx]
	return callShard(ctx, c, sh, name, reqID, func(cctx context.Context, ep *endpoint) ([][]msql.Value, error) {
		f, err := c.shardRead(cctx, sh, ep, "/rows", wire.ReadRequest{SQL: sql, Params: params, RequestID: reqID})
		if err != nil {
			return nil, err
		}
		return wire.DecodeRowsFrame(f.Frame)
	})
}

// shardRead sends one shard read (client.Read) to ep at the catalog
// version ep should be at, with what is left of ctx's deadline as its
// timeout, syncing ep's log cursor first and repairing once on a
// version mismatch.
func (c *Coordinator) shardRead(ctx context.Context, sh *shard, ep *endpoint, path string, req wire.ReadRequest) (*client.Frame, error) {
	if err := c.ensureSynced(ctx, sh, ep, req.RequestID); err != nil {
		return nil, err
	}
	run := func() (*client.Frame, error) {
		req.ExpectVersion = ep.version()
		if d, ok := ctx.Deadline(); ok {
			req.TimeoutMillis = int64(time.Until(d) / time.Millisecond)
		}
		return ep.cli.Read(ctx, path, req)
	}
	f, err := run()
	if vm := (*client.VersionMismatchError)(nil); errorsAs(err, &vm) {
		if serr := c.rewindAndSync(ctx, sh, ep, req.RequestID); serr == nil {
			f, err = run()
		}
	}
	return f, asStatementError(err)
}

// planResult is rows as the answer of node: its output columns' names
// and types.
func planResult(node plan.Node, rows [][]msql.Value) *msql.Result {
	sch := node.Schema()
	types := make([]sqltypes.Type, len(sch.Cols))
	for i, col := range sch.Cols {
		types[i] = col.Typ
	}
	return &msql.Result{Columns: sch.ColNames(), Types: types, Rows: rows}
}

// shardFailure classifies a set of per-shard failures: a context
// cancellation/timeout keeps its own taxonomy code, a shard's statement
// error is the statement's answer (the lowest-numbered shard's, so the
// answer does not depend on which shard replied first), and anything
// else is the structured unavailability error.
func (c *Coordinator) shardFailure(ctx context.Context, failed map[int]error) error {
	if err := ctx.Err(); err != nil {
		return exec.CtxError(err)
	}
	for i := range c.shards {
		var se *statementError
		if errors.As(failed[i], &se) {
			return se.err
		}
	}
	c.metrics.shardErrors.Add(1)
	return unavailable(failed)
}

// ---------------------------------------------------------------------------
// Scatter execution (partial aggregation + exact merge)

// scatterShape returns the Aggregate node splits at when it scatters:
// the plan reads one Scan, under nothing but Filters, under an Aggregate
// exec.PartialShape accepts, and every aggregate call's states merge
// exactly however the shards interleave a group's rows.
func scatterShape(node plan.Node) (*plan.Aggregate, bool) {
	agg, err := exec.PartialShape(node)
	if err != nil {
		return nil, false
	}
	reads := 0
	plan.Walk(node, func(n plan.Node) {
		switch n.(type) {
		case *plan.Scan, *plan.LinkRead:
			reads++
		}
	})
	if reads != 1 {
		return nil, false
	}
	for _, a := range agg.Aggs {
		def, ok := fn.LookupAgg(a.Name)
		if !ok || !def.MergesInterleaved(a.ArgTypes()) {
			return nil, false
		}
	}
	return agg, true
}

// scatter sends st to every shard (/partial), each folding its rows
// with node's Aggregate, agg, and the per-group MIN of the sequence
// column, and merges the shards' partial tables into node's Aggregate
// (exec.MergePartials), which finishes the plan: groups and their
// pieces merge in global insertion order.
func (c *Coordinator) scatter(ctx context.Context, st shape, node plan.Node, agg *plan.Aggregate, reqID string) (*msql.Result, error) {
	c.metrics.scatters.Add(int64(len(c.shards)))
	req := wire.ReadRequest{SQL: st.sql, Params: wire.EncodeParams(st.params), Seq: catalog.SequenceColumn,
		Groups: len(agg.GroupExprs), Aggs: len(agg.Aggs), RequestID: reqID}
	frames := make([][]byte, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			p, err := callShard(ctx, c, sh, "partial", reqID, func(cctx context.Context, ep *endpoint) (*client.Frame, error) {
				return c.shardRead(cctx, sh, ep, "/partial", req)
			})
			if err != nil {
				errs[i] = err
				return
			}
			frames[i] = p.Frame
		}(i, sh)
	}
	wg.Wait()
	failed := map[int]error{}
	for i, err := range errs {
		if err != nil {
			failed[i] = err
		}
	}
	if len(failed) > 0 {
		return nil, c.shardFailure(ctx, failed)
	}

	settings := exec.DefaultSettings()
	settings.Params = st.params
	rows, err := exec.MergePartials(ctx, node, frames, settings)
	if err != nil {
		return nil, err
	}
	return planResult(node, rows), nil
}

// ---------------------------------------------------------------------------
// Gather execution (fallback)

// gather answers a statement the shards cannot split, the
// always-correct fallback for any query shape: it reads the rows of
// every sharded table node reads, and their sequence column, from every
// shard (/rows), orders each table's rows by it — a single node's order
// — and runs node, with st's parameters, over them (exec.RunGathered).
func (c *Coordinator) gather(ctx context.Context, st shape, node plan.Node, sharded map[plan.RowSource]*tableMeta, reqID string) (*msql.Result, error) {
	type fetch struct {
		src  plan.RowSource
		idx  int
		rows [][]msql.Value
		err  error
	}
	var jobs []*fetch
	for src := range sharded {
		for i := range c.shards {
			jobs = append(jobs, &fetch{src: src, idx: i})
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *fetch) {
			defer wg.Done()
			fetchSQL := ast.FormatQuery(&ast.Query{Body: &ast.Select{
				Items: []ast.SelectItem{{Star: true}, {Expr: &ast.Ident{Parts: []string{catalog.SequenceColumn}}}},
				From:  &ast.TableName{Name: sharded[j.src].name},
			}})
			j.rows, j.err = c.readRows(ctx, j.idx, "gather", fetchSQL, nil, reqID)
		}(j)
	}
	wg.Wait()
	failed := map[int]error{}
	for _, j := range jobs {
		if j.err != nil {
			failed[j.idx] = j.err
		}
	}
	if len(failed) > 0 {
		return nil, c.shardFailure(ctx, failed)
	}

	tables := make(map[plan.RowSource][]exec.Row, len(sharded))
	for _, j := range jobs {
		tables[j.src] = append(tables[j.src], j.rows...)
	}
	for src, rows := range tables {
		// The sequence column travels last, as the read names it.
		seq := len(src.ColNames())
		for _, r := range rows {
			if len(r) != seq+1 || r[seq].Null || r[seq].K != sqltypes.KindInt {
				return nil, exec.Wrap(fmt.Errorf("table %s: a shard row lacks its %s ordering column", src.Name(), catalog.SequenceColumn), exec.CodeRuntime, exec.PhaseExecute)
			}
		}
		slices.SortFunc(rows, func(a, b []msql.Value) int { return cmp.Compare(a[seq].I, b[seq].I) })
		for i, r := range rows {
			rows[i] = r[:seq:seq]
		}
	}
	settings := exec.DefaultSettings()
	settings.Params = st.params
	rows, err := exec.RunGathered(ctx, node, tables, settings)
	if err != nil {
		return nil, err
	}
	return planResult(node, rows), nil
}

// errorsAs is a typed wrapper over errors.As.
func errorsAs[T error](err error, target *T) bool {
	if err == nil {
		return false
	}
	return errors.As(err, target)
}
