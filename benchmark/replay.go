package main

// The staged replay: each layer's public entry point called and timed
// on its own, single-threaded, over a fixed prefix of the client
// sequences on an identically loaded engine.Session. It gives the
// engine-internal costs the served path does not expose, and counts
// that repeat exactly.
//
// It differs from the served path: there is no admission, no plan
// cache and no result memo in front of the stages, exec runs with one
// worker, and prepared tiles replay as their literal-text form. The
// lattice, when the workload has rollups on, is attached and warm.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/measures-sql/msql/internal/ast"
	"github.com/measures-sql/msql/internal/binder"
	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/engine"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/optimizer"
	"github.com/measures-sql/msql/internal/parser"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
	"github.com/measures-sql/msql/internal/vec"
	"github.com/measures-sql/msql/internal/wal"
	"github.com/measures-sql/msql/internal/wire"
)

// replayPrefix is how many ops of each client's sequence are replayed.
const (
	replayPrefix      = 24
	quickReplayPrefix = 8
)

type replayStats struct {
	ops, reads int

	parseNs, bindNs, optNs, runNs, vecNs, encodeNs int64

	sqlBytes, encodedBytes      int64
	expansions                  int
	winmagic, pushdowns         int
	rowsScanned, rowsOut        int64
	subqueryEvals, subqueryHits int64
	vecKernel, vecFallback      int64

	scanNsPerRow, insertNsPerRow, heapBytesPerRow, transposeNsPerRow float64

	walAppendUs, walBytesPerUserByte float64
}

// measureExpansions counts the measure references the binder expanded
// into subqueries (engine.emitExpandSpans reads the same labels).
func measureExpansions(n plan.Node) int {
	count := 0
	plan.VisitNodeExprs(n, func(e plan.Expr) {
		plan.WalkExprs(e, func(x plan.Expr) {
			if sq, ok := x.(*plan.Subquery); ok {
				if strings.HasPrefix(sq.Label, "measure ") {
					count++
				}
				count += measureExpansions(sq.Plan)
			}
		})
	})
	for _, c := range n.Children() {
		count += measureExpansions(c)
	}
	return count
}

func replaySession(w *workload, seed int64, orders int) (*engine.Session, *datagen.Dataset, error) {
	sess := engine.New()
	if w.rollups {
		sess.SetRollups(true)
	}
	ds := dataset(seed, orders)
	if _, err := sess.Execute(datagen.SetupSQL); err != nil {
		return nil, nil, err
	}
	if err := sess.InsertRows("Customers", ds.Customers); err != nil {
		return nil, nil, err
	}
	if err := sess.InsertRows("Orders", ds.Orders); err != nil {
		return nil, nil, err
	}
	if _, err := sess.Execute(viewSQL); err != nil {
		return nil, nil, err
	}
	return sess, ds, nil
}

// stagedReplay replays the first prefix ops of every client sequence.
func stagedReplay(ctx context.Context, w *workload, seed int64, orders int, seqs [][]op, prefix int, scratch string) (*replayStats, error) {
	sess, ds, err := replaySession(w, seed, orders)
	if err != nil {
		return nil, fmt.Errorf("replay session: %w", err)
	}
	cat := sess.Catalog()
	opt := *sess.OptOptions()
	base := *sess.ExecSettings()
	base.Workers = 1

	var ops []*op
	for _, seq := range seqs {
		n := prefix
		if n > len(seq) {
			n = len(seq)
		}
		for i := 0; i < n; i++ {
			ops = append(ops, &seq[i])
		}
	}
	if w.rollups {
		// Build the lattice nodes the served path has had since its warm pass.
		for _, p := range ops {
			if p.isRead() {
				if _, err := sess.Query(p.sql); err != nil {
					return nil, fmt.Errorf("replay warm: %w", err)
				}
			}
		}
	}

	st := &replayStats{}
	var inserts []*op
	for _, p := range ops {
		st.ops++
		st.sqlBytes += int64(len(p.sql))
		t := time.Now()
		stmts, err := parser.ParseStatements(p.sql)
		st.parseNs += int64(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("replay parse: %w", err)
		}
		if !p.isRead() {
			inserts = append(inserts, p)
			continue
		}
		qs, ok := stmts[0].(*ast.QueryStmt)
		if !ok || len(stmts) != 1 {
			return nil, fmt.Errorf("replay: %q is not a single query", p.sql)
		}
		st.reads++

		b := binder.New(cat).WithInline(opt.InlineMeasures)
		t = time.Now()
		bound, err := b.BindQuery(qs.Query)
		st.bindNs += int64(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("replay bind: %w", err)
		}
		st.expansions += len(b.InlinedMeasures()) + measureExpansions(bound)

		t = time.Now()
		node, rep := optimizer.OptimizeWithReport(bound, opt)
		st.optNs += int64(time.Since(t))
		st.winmagic += rep.WinMagicRewrites
		st.pushdowns += rep.FilterPushdowns

		var rowStats, vecStats exec.Stats
		settings := base
		settings.Stats = &rowStats
		settings.Vectorized = false
		t = time.Now()
		rows, err := exec.RunContext(ctx, node, &settings)
		st.runNs += int64(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("replay exec: %w", err)
		}
		settings.Stats = &vecStats
		settings.Vectorized = true
		t = time.Now()
		vrows, err := exec.RunContext(ctx, node, &settings)
		st.vecNs += int64(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("replay vectorized exec: %w", err)
		}
		rs, vs := rowStats.Snapshot(), vecStats.Snapshot()
		st.rowsScanned += rs.RowsScanned
		st.rowsOut += int64(len(rows))
		st.subqueryEvals += rs.SubqueryEvals
		st.subqueryHits += rs.SubqueryCacheHits
		st.vecKernel += vs.VecKernelRows
		st.vecFallback += vs.VecFallbackRows

		sch := node.Schema()
		t = time.Now()
		resp := wire.QueryResponse{Columns: sch.ColNames(), Types: make([]string, len(sch.Cols)), Rows: wire.EncodeRows(rows)}
		for i, c := range sch.Cols {
			resp.Types[i] = c.Typ.String()
		}
		buf, err := json.Marshal(resp)
		st.encodeNs += int64(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("replay encode: %w", err)
		}
		st.encodedBytes += int64(len(buf))
		if a, b := checksum(resp.Rows), checksum(wire.EncodeRows(vrows)); a != b {
			return nil, fmt.Errorf("replay: row and vectorized executors disagree on %q", p.sql)
		}
	}

	storageCosts(st, ds.Orders)
	if len(inserts) > 0 && w.durable {
		if err := walCosts(st, inserts, filepath.Join(scratch, "replay-wal")); err != nil {
			return nil, err
		}
	}
	return st, nil
}

var sink int64

// storageCosts times the storage and vec entry points the executor
// leans on, over the workload's own Orders rows.
func storageCosts(st *replayStats, rows [][]sqltypes.Value) {
	cols := []string{"prodName", "custName", "orderDate", "revenue", "cost"}
	types := []sqltypes.Type{{Kind: sqltypes.KindString}, {Kind: sqltypes.KindString},
		{Kind: sqltypes.KindDate}, {Kind: sqltypes.KindInt}, {Kind: sqltypes.KindInt}}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	tbl := storage.NewTable("Orders", cols, types)
	for i := 0; i < len(rows); i += ingestBatchRows {
		end := i + ingestBatchRows
		if end > len(rows) {
			end = len(rows)
		}
		if err := tbl.Insert(rows[i:end]); err != nil {
			panic(err) // rows came from datagen with exactly these types
		}
	}
	st.insertNsPerRow = float64(time.Since(t)) / float64(len(rows))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		st.heapBytesPerRow = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(rows))
	}

	const passes = 5
	t = time.Now()
	for p := 0; p < passes; p++ {
		for _, r := range tbl.Rows() {
			sink += r[3].I
		}
	}
	st.scanNsPerRow = float64(time.Since(t)) / float64(passes*len(rows))

	kinds := make([]sqltypes.Kind, len(types))
	for i, ty := range types {
		kinds[i] = ty.Kind
	}
	stored := tbl.Rows()
	t = time.Now()
	for i := 0; i < len(stored); i += 1024 {
		end := i + 1024
		if end > len(stored) {
			end = len(stored)
		}
		sink += int64(vec.FromRows(stored[i:end], kinds).N)
	}
	st.transposeNsPerRow = float64(time.Since(t)) / float64(len(stored))
}

// walCosts appends the replayed insert batches to a scratch log under
// wal-sync=always, timing each append and relating logged bytes to the
// INSERT text the user sent.
func walCosts(st *replayStats, inserts []*op, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("replay wal: %w", err)
	}
	var userBytes int64
	t := time.Now()
	for _, p := range inserts {
		if err := m.Append(&wal.Record{Type: wal.RecInsert, Name: "Orders", Rows: p.rows}); err != nil {
			m.Close()
			return fmt.Errorf("replay wal append: %w", err)
		}
		userBytes += int64(len(p.sql))
	}
	took := time.Since(t)
	ws := m.StatsSnapshot()
	if err := m.Close(); err != nil {
		return fmt.Errorf("replay wal close: %w", err)
	}
	st.walAppendUs = float64(took) / 1e3 / float64(len(inserts))
	st.walBytesPerUserByte = float64(ws.AppendBytes) / float64(userBytes)
	return nil
}
