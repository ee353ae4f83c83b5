package dist

// Query classification and the four execution paths. Every path is
// bit-identical to a single-node session running the same statements:
// routed queries read exactly one partition that provably contains
// every qualifying row; scattered aggregations merge only aggregates
// whose states merge exactly however the shards interleave a group's
// rows, in the executor's own grouping table, ordering per-group
// partials by the global insertion sequence so group output order and
// key values match the oracle; and the gather fallback reads the
// tables' rows in insertion order and runs the coordinator's own plan
// of the statement over them. Rows and partial tables cross from a
// shard as one binary frame, so every value keeps its kind exactly.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/measures-sql/msql/internal/ast"
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
// once, on the coordinator and on every shard. Only the local path runs
// the literal text.
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
		return c.local.QueryContext(ctx, ast.FormatQuery(q))
	}
	if idx, ok := c.routeSingle(q); ok {
		return c.routed(ctx, idx, st, node, reqID)
	}
	if res, handled, err := c.scatter(ctx, st, node, reqID); handled {
		return res, err
	}
	return c.gather(ctx, st, node, sharded, reqID)
}

// shape is a query as it is planned: its shape (ast.Lift) with the
// lifted values, or the literal query with none. sql is its text, the
// key the local, shadow and shard plan caches file it under.
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

// routeSingle reports whether q can run whole on one shard: its FROM is
// a single sharded table and the WHERE pins that table's partition
// column to a literal, so every qualifying row — and every row any
// measure or AT context in the query can reach — lives on the owning
// shard.
func (c *Coordinator) routeSingle(q *ast.Query) (int, bool) {
	if len(q.With) != 0 {
		return 0, false
	}
	sel, ok := q.Body.(*ast.Select)
	if !ok || sel.From == nil {
		return 0, false
	}
	tn, ok := sel.From.(*ast.TableName)
	if !ok {
		return 0, false
	}
	meta, ok := c.meta(tn.Name)
	if !ok {
		return 0, false
	}
	pcol := meta.cols[meta.pcol]
	alias := tn.Alias
	if alias == "" {
		alias = tn.Name
	}
	// A shard-side SELECT * would expose the hidden sequence column.
	for _, it := range sel.Items {
		if it.Star {
			return 0, false
		}
	}
	var exprs []ast.Expr
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, sel.Where, sel.Having, sel.Qualify, q.Limit, q.Offset)
	for _, gi := range sel.GroupBy {
		exprs = append(exprs, gi.Exprs...)
		for _, set := range gi.Sets {
			exprs = append(exprs, set...)
		}
	}
	for _, oi := range q.OrderBy {
		exprs = append(exprs, oi.Expr)
	}
	for _, e := range exprs {
		if !routeSafeExpr(e, pcol) {
			return 0, false
		}
	}
	for _, conj := range conjuncts(sel.Where) {
		b, ok := conj.(*ast.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, pair := range [][2]ast.Expr{{b.L, b.R}, {b.R, b.L}} {
			id, ok := pair[0].(*ast.Ident)
			if !ok || !strings.EqualFold(id.Name(), pcol) {
				continue
			}
			if qual := id.Qualifier(); qual != "" && !strings.EqualFold(qual, alias) {
				continue
			}
			v, err := engine.EvalConstExpr(pair[1])
			if err != nil {
				continue
			}
			cv, err := storage.Coerce(v, meta.kinds[meta.pcol])
			if err != nil {
				continue
			}
			return c.shardFor(cv), true
		}
	}
	return 0, false
}

// conjuncts flattens a top-level AND chain.
func conjuncts(e ast.Expr) []ast.Expr {
	b, ok := e.(*ast.Binary)
	if ok && strings.EqualFold(b.Op, "AND") {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []ast.Expr{e}
}

// routeSafeExpr rejects expressions that could reach rows outside the
// pinned partition: subqueries, AT WHERE, AT ALL with no dimensions
// (full context reset), and AT modifiers that touch the partition
// column itself.
func routeSafeExpr(e ast.Expr, pcol string) bool {
	if e == nil {
		return true
	}
	safe := true
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch t := x.(type) {
		case *ast.ScalarSubquery, *ast.InSubquery, *ast.Exists:
			safe = false
		case *ast.At:
			for _, mod := range t.Mods {
				switch m := mod.(type) {
				case *ast.AtVisible:
				case *ast.AtWhere:
					safe = false
				case *ast.AtAll:
					if len(m.Dims) == 0 {
						safe = false
					}
					for _, d := range m.Dims {
						if mentionsCol(d, pcol) {
							safe = false
						}
					}
				case *ast.AtSet:
					if mentionsCol(m.Dim, pcol) {
						safe = false
					}
				default:
					safe = false
				}
			}
		}
		return safe
	})
	return safe
}

func mentionsCol(e ast.Expr, col string) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if id, ok := x.(*ast.Ident); ok && strings.EqualFold(id.Name(), col) {
			found = true
		}
		return !found
	})
	return found
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

// scatter attempts the scatter/partial path on the lifted statement st.
// handled=false means the query's shape is not scatter-safe and the
// caller should gather.
func (c *Coordinator) scatter(ctx context.Context, st shape, localPlan plan.Node, reqID string) (res *msql.Result, handled bool, err error) {
	sel, ok := st.q.Body.(*ast.Select)
	if !ok || sel.Distinct || sel.Having != nil || sel.Qualify != nil {
		return nil, false, nil
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, false, nil
		}
	}
	// Rewrite a copy: append the bookkeeping aggregate and strip the
	// post-aggregation clauses (they run on the coordinator after the
	// merge). Appending (not prepending) keeps GROUP BY ordinals valid.
	ss := *sel
	ss.Items = append(sel.Items[:len(sel.Items):len(sel.Items)], ast.SelectItem{
		Expr:  &ast.FuncCall{Name: "MIN", Args: []ast.Expr{&ast.Ident{Parts: []string{seqCol}}}},
		Alias: "__mseq_min",
	})
	sq := *st.q
	sq.Body = &ss
	sq.OrderBy, sq.Limit, sq.Offset = nil, nil, nil
	shardSQL := ast.FormatQuery(&sq)

	// Validate the rewrite against the shard-schema mirror before any
	// shard sees it; any planning failure (hidden column not in scope,
	// ambiguity through a join) simply falls through to gather.
	shadowPlan, perr := c.shadow.PlanQuery(ctx, shardSQL, st.params)
	if perr != nil {
		return nil, false, nil
	}
	// The shard runs exactly this check on the same plan; on top of it,
	// every aggregate's shard states must merge exactly in first-sequence
	// order, however the shards interleave a group's rows.
	aggSh, err := exec.PartialShape(shadowPlan)
	if err != nil || !c.scatterPlanSafe(shadowPlan) {
		return nil, false, nil
	}
	aggCount := len(aggSh.Aggs) - 1
	groupCount := len(aggSh.GroupExprs)
	if aggCount < 0 || aggSh.Aggs[aggCount].Name != "MIN" {
		return nil, false, nil
	}
	for _, a := range aggSh.Aggs[:aggCount] {
		def, ok := fn.LookupAgg(a.Name)
		if !ok || !def.MergesInterleaved(a.ArgTypes()) {
			return nil, false, nil
		}
	}
	// Align the local plan: the shards' groups merge into its
	// Aggregate, so the aggregates must correspond one to one.
	aggLoc, err := exec.MergeShape(localPlan)
	if err != nil || len(aggLoc.Aggs) != aggCount || len(aggLoc.GroupExprs) != groupCount {
		return nil, false, nil
	}
	for i := 0; i < aggCount; i++ {
		a, b := aggLoc.Aggs[i], aggSh.Aggs[i]
		if a.Name != b.Name || a.Star != b.Star || a.Distinct != b.Distinct || len(a.Args) != len(b.Args) {
			return nil, false, nil
		}
	}
	out, err := c.scatterRun(ctx, st.params, shardSQL, localPlan, groupCount, aggCount, reqID)
	return out, true, err
}

// scatterPlanSafe requires exactly one table scan (no joins — a
// per-shard join of per-shard slices is not the global join), every
// scan on a sharded table, and no subqueries or window functions
// anywhere (measure expansions that survive as correlated subqueries
// need rows beyond the shard's partition).
func (c *Coordinator) scatterPlanSafe(n plan.Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	safe := true
	scans := 0
	plan.Walk(n, func(m plan.Node) {
		switch t := m.(type) {
		case *plan.Scan:
			scans++
			if _, ok := c.tables[lower(t.Source.Name())]; !ok {
				safe = false
			}
		case *plan.Window, *plan.Join, *plan.SetOp, *plan.Distinct:
			safe = false
		}
		plan.VisitNodeExprs(m, func(e plan.Expr) {
			plan.WalkExprs(e, func(x plan.Expr) {
				if _, ok := x.(*plan.Subquery); ok {
					safe = false
				}
			})
		})
	})
	return safe && scans == 1
}

// scatterRun fans the rewritten query out with the statement's
// parameters and merges the shards' partial tables into the local
// plan's Aggregate (exec.MergePartials), which finishes the plan. Each
// shard's groups carry MIN(__mseq) last, so groups and their pieces
// merge in global insertion order.
func (c *Coordinator) scatterRun(ctx context.Context, params []msql.Value, shardSQL string, localPlan plan.Node, groupCount, aggCount int, reqID string) (*msql.Result, error) {
	c.metrics.scatters.Add(int64(len(c.shards)))
	wireParams := wire.EncodeParams(params)
	frames := make([][]byte, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			p, err := callShard(ctx, c, sh, "partial", reqID, func(cctx context.Context, ep *endpoint) (*client.Frame, error) {
				return c.shardRead(cctx, sh, ep, "/partial", wire.ReadRequest{
					SQL: shardSQL, Params: wireParams, Groups: groupCount, Aggs: aggCount + 1, RequestID: reqID})
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
	settings.Params = params
	rows, err := exec.MergePartials(ctx, localPlan, frames, settings)
	if err != nil {
		return nil, err
	}
	return planResult(localPlan, rows), nil
}

// ---------------------------------------------------------------------------
// Gather execution (fallback)

// gather answers a statement the shards cannot split, the
// always-correct fallback for any query shape: it reads the rows of
// every sharded table node reads from every shard (/rows), orders each
// table's rows by the global insertion sequence — a single node's order
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
				Items: []ast.SelectItem{{Star: true}},
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
		// The hidden sequence travels as the last column.
		seq := len(src.ColNames())
		for _, r := range rows {
			if len(r) != seq+1 || r[seq].Null || r[seq].K != sqltypes.KindInt {
				return nil, exec.Wrap(fmt.Errorf("table %s: a shard row lacks its %s ordering column", src.Name(), seqCol), exec.CodeRuntime, exec.PhaseExecute)
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
