package exec

import (
	"fmt"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/vec"
)

// Vectorized execution. Filter, Project, and Aggregate process their
// input in vec.BatchRows-row batches: each expression compiles once into
// a small tree of vecExpr nodes, where a node is either a typed batch
// kernel (comparisons, arithmetic, AND/OR, CAST, ...) or a per-row
// fallback that calls the ordinary row evaluator for the selected rows
// (subqueries, CASE, IN, volatile-free expressions without a kernel).
// The row engine is the oracle: every path below must produce
// bit-identical values — including the Kind of NULLs — and must never
// raise an error the row engine would not. The two deliberate exceptions
// to error *identity* (not error presence) are documented on vecKernel
// and the aggregate path: evaluating column-at-a-time can surface a
// different row's error first.

// vecExpr is one compiled node. eval returns a fresh column with results
// at the selected indices; the compiled tree is shared across worker
// goroutines and holds no mutable state.
type vecExpr interface {
	eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error)
}

// vecBatch views one batch of input rows columnarly, materializing a
// column per referenced input column on first use. It also accumulates
// the batch's kernel/fallback row counts, flushed by noteBatch.
type vecBatch struct {
	rows  []Row
	kinds []sqltypes.Kind
	cols  []*vec.Col

	// share, when set, caches built columns across executions of a
	// cached plan (the operator reads straight from a base-table Scan);
	// off is this batch's row offset within the scan output.
	share *colShare
	off   int

	kernelRows   int64
	fallbackRows int64
}

func newVecBatch(rows []Row, kinds []sqltypes.Kind) *vecBatch {
	return &vecBatch{rows: rows, kinds: kinds, cols: make([]*vec.Col, len(kinds))}
}

func (vb *vecBatch) col(idx int) *vec.Col {
	if c := vb.cols[idx]; c != nil {
		return c
	}
	if vb.share != nil {
		if c := vb.share.get(vb.off, idx, len(vb.rows)); c != nil {
			vb.cols[idx] = c
			return c
		}
	}
	c := vec.BuildCol(vb.rows, idx, vb.kinds[idx])
	vb.cols[idx] = c
	if vb.share != nil {
		vb.share.put(vb.off, idx, c)
	}
	return c
}

// batchIota is the shared all-rows selection vector; slices of it are
// read-only.
var batchIota = func() []int {
	s := make([]int, vec.BatchRows)
	for i := range s {
		s[i] = i
	}
	return s
}()

// schemaKinds extracts the static column kinds of a node's output.
func schemaKinds(s *plan.Schema) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, len(s.Cols))
	for i, c := range s.Cols {
		kinds[i] = c.Typ.Kind
	}
	return kinds
}

// vecUsable reports whether the vectorized path may run an operator whose
// expressions have traits t: vectorized mode is on and no expression
// contains a volatile call — column-major evaluation reorders calls
// across rows and expressions, which only pure expressions tolerate.
func (rt *runtime) vecUsable(t exprTraits) bool {
	return rt.sh.settings.Vectorized && !t.serial()
}

// tickBatch is tick amortized over a whole batch.
func (rt *runtime) tickBatch(n int) error {
	if rt.steps += n; rt.steps < cancelCheckRows {
		return nil
	}
	return rt.tickNow()
}

// noteBatch folds one processed batch's counters into the statement
// stats and the operator's EXPLAIN ANALYZE metrics.
func (rt *runtime) noteBatch(n plan.Node, vb *vecBatch) {
	if s := rt.sh.settings.Stats; s != nil {
		atomic.AddInt64(&s.VecBatches, 1)
		atomic.AddInt64(&s.VecKernelRows, vb.kernelRows)
		atomic.AddInt64(&s.VecFallbackRows, vb.fallbackRows)
	}
	if p := rt.sh.prof; p != nil {
		p.NodeMetrics(rt.sub, n).AddBatch(vb.kernelRows, vb.fallbackRows)
	}
	vb.kernelRows, vb.fallbackRows = 0, 0
}

// vecCompile compiles e for an input of the given width. Unsupported
// node types compile to a fallback over the whole subtree, so the result
// always evaluates — just not always columnarly.
func vecCompile(e plan.Expr, width int) vecExpr {
	switch e := e.(type) {
	case *plan.ColRef:
		if e.Index < 0 || e.Index >= width {
			// Out of range: let the row evaluator produce its error.
			return &vecFallback{fn: compileExpr(e), typ: e.Typ.Kind}
		}
		return &vecColRef{idx: e.Index}
	case *plan.Lit:
		return &vecLit{val: e.Val}
	case *plan.Param:
		return &vecParam{idx: e.Index, kind: e.Typ.Kind}
	case *plan.Call:
		kinds := make([]sqltypes.Kind, len(e.Args))
		for i, a := range e.Args {
			kinds[i] = a.Type().Kind
		}
		kern, outKind, ok := fn.LookupKernel(e.Name, kinds)
		sc, scOK := fn.LookupScalar(e.Name)
		if !ok || !scOK || outKind != e.Typ.Kind {
			return &vecFallback{fn: compileExpr(e), typ: e.Typ.Kind}
		}
		args := make([]vecExpr, len(e.Args))
		for i, a := range e.Args {
			args[i] = vecCompile(a, width)
		}
		return &vecKernel{
			name: e.Name, pos: e.Pos, typ: e.Typ.Kind,
			sc: sc, kern: kern, argKinds: kinds, args: args,
		}
	case *plan.And:
		return &vecAnd{l: vecCompile(e.L, width), r: vecCompile(e.R, width)}
	case *plan.Or:
		return &vecOr{l: vecCompile(e.L, width), r: vecCompile(e.R, width)}
	case *plan.Not:
		return &vecNot{x: vecCompile(e.X, width)}
	case *plan.IsNull:
		return &vecIsNull{x: vecCompile(e.X, width), neg: e.Neg}
	case *plan.IsDistinct:
		return &vecIsDistinct{l: vecCompile(e.L, width), r: vecCompile(e.R, width), neg: e.Neg}
	case *plan.Cast:
		return &vecCast{x: vecCompile(e.X, width), kind: e.Kind}
	default:
		// CASE and IN short-circuit per row; subqueries, correlated and
		// aggregate refs need row context. All stay on the row path.
		return &vecFallback{fn: compileExpr(e), typ: e.Type().Kind}
	}
}

// vecColRef reads an input column.
type vecColRef struct{ idx int }

func (v *vecColRef) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	return vb.col(v.idx), nil
}

// vecLit broadcasts a literal.
type vecLit struct{ val sqltypes.Value }

func (v *vecLit) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	c := vec.NewCol(v.val.K, len(vb.rows))
	for _, i := range sel {
		c.Set(i, v.val)
	}
	return c, nil
}

// vecParam broadcasts a prepared-statement parameter. The value is read
// from the execution's Settings at eval time, so a compiled tree cached
// in a Pipeline stays valid across executions with different arguments.
type vecParam struct {
	idx  int
	kind sqltypes.Kind
}

func (v *vecParam) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	ps := rt.sh.settings.Params
	if v.idx < 0 || v.idx >= len(ps) {
		return nil, fmt.Errorf("parameter $%d not bound (%d provided)", v.idx+1, len(ps))
	}
	c := vec.NewCol(v.kind, len(vb.rows))
	for _, i := range sel {
		c.Set(i, ps[v.idx])
	}
	return c, nil
}

// vecKernel evaluates a scalar call. When the argument columns come back
// typed with the registered kinds it runs the batch kernel; otherwise it
// degrades to a boxed element-wise loop over the same scalar, which is
// still batch-shaped (no tree walk per row). Note the one semantic
// wrinkle: a kernel scans its selection in order, so when several rows
// would error (e.g. two overflows) the *first selected* row's error
// surfaces — the row engine surfaces the first row's error too, but an
// enclosing AND/OR evaluated column-major may reach this node with a
// different selection order across expressions. The differential harness
// therefore compares error presence, not messages.
type vecKernel struct {
	name     string
	pos      int
	typ      sqltypes.Kind
	sc       *fn.Scalar
	kern     fn.Kernel
	argKinds []sqltypes.Kind
	args     []vecExpr
}

func (v *vecKernel) wrap(err error) error { return callError(v.name, v.pos, err) }

func (v *vecKernel) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	cols := make([]*vec.Col, len(v.args))
	for k, a := range v.args {
		c, err := a.eval(rt, vb, sel)
		if err != nil {
			return nil, err
		}
		cols[k] = c
	}
	out := vec.NewCol(v.typ, len(vb.rows))
	fast := true
	for k, c := range cols {
		if c.Boxed() || c.Kind != v.argKinds[k] {
			fast = false
			break
		}
	}
	if fast {
		if err := v.kern(cols, sel, out); err != nil {
			return nil, v.wrap(err)
		}
		vb.kernelRows += int64(len(sel))
		return out, nil
	}
	// Boxed path: same strict-NULL short-circuit as a compiled call.
	argv := make([]sqltypes.Value, len(cols))
	for _, i := range sel {
		anyNull := false
		for k, c := range cols {
			val := c.Value(i)
			argv[k] = val
			if val.Null {
				anyNull = true
			}
		}
		if v.sc.Strict && anyNull {
			out.Set(i, sqltypes.Null(v.typ))
			continue
		}
		res, err := v.sc.Eval(argv)
		if err != nil {
			return nil, v.wrap(err)
		}
		out.Set(i, res)
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

// vecAnd is three-valued AND. The right side is evaluated only over the
// rows whose left side is not FALSE, which preserves the row engine's
// short-circuit guarantee: an error (or volatile effect, though volatile
// expressions never reach this path) in R cannot fire on a row where L
// already decided the result.
type vecAnd struct{ l, r vecExpr }

func (v *vecAnd) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	lc, err := v.l.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	sel2 := make([]int, 0, len(sel))
	for _, i := range sel {
		if !lc.Value(i).IsFalse() {
			sel2 = append(sel2, i)
		}
	}
	var rc *vec.Col
	if len(sel2) > 0 {
		if rc, err = v.r.eval(rt, vb, sel2); err != nil {
			return nil, err
		}
	}
	out := vec.NewCol(sqltypes.KindBool, len(vb.rows))
	for _, i := range sel {
		lv := lc.Value(i)
		if lv.IsFalse() {
			out.Set(i, lv)
			continue
		}
		out.Set(i, sqltypes.And(lv, rc.Value(i)))
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

// vecOr mirrors vecAnd with TRUE as the short-circuit value.
type vecOr struct{ l, r vecExpr }

func (v *vecOr) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	lc, err := v.l.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	sel2 := make([]int, 0, len(sel))
	for _, i := range sel {
		if !lc.Value(i).IsTrue() {
			sel2 = append(sel2, i)
		}
	}
	var rc *vec.Col
	if len(sel2) > 0 {
		if rc, err = v.r.eval(rt, vb, sel2); err != nil {
			return nil, err
		}
	}
	out := vec.NewCol(sqltypes.KindBool, len(vb.rows))
	for _, i := range sel {
		lv := lc.Value(i)
		if lv.IsTrue() {
			out.Set(i, lv)
			continue
		}
		out.Set(i, sqltypes.Or(lv, rc.Value(i)))
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

type vecNot struct{ x vecExpr }

func (v *vecNot) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	xc, err := v.x.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	out := vec.NewCol(sqltypes.KindBool, len(vb.rows))
	for _, i := range sel {
		out.Set(i, sqltypes.Not(xc.Value(i)))
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

type vecIsNull struct {
	x   vecExpr
	neg bool
}

func (v *vecIsNull) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	xc, err := v.x.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	out := vec.NewCol(sqltypes.KindBool, len(vb.rows))
	for _, i := range sel {
		out.Set(i, sqltypes.NewBool(xc.Null(i) != v.neg))
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

type vecIsDistinct struct {
	l, r vecExpr
	neg  bool
}

func (v *vecIsDistinct) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	lc, err := v.l.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	rc, err := v.r.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	out := vec.NewCol(sqltypes.KindBool, len(vb.rows))
	for _, i := range sel {
		same := sqltypes.NotDistinct(lc.Value(i), rc.Value(i))
		out.Set(i, sqltypes.NewBool(same == v.neg))
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

// vecCast converts element-wise; errors stay unwrapped exactly like the
// row evaluator's Cast case.
type vecCast struct {
	x    vecExpr
	kind sqltypes.Kind
}

func (v *vecCast) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	xc, err := v.x.eval(rt, vb, sel)
	if err != nil {
		return nil, err
	}
	out := vec.NewCol(v.kind, len(vb.rows))
	for _, i := range sel {
		res, err := sqltypes.Cast(xc.Value(i), v.kind)
		if err != nil {
			return nil, err
		}
		out.Set(i, res)
	}
	vb.kernelRows += int64(len(sel))
	return out, nil
}

// vecFallback evaluates the subtree with the row engine, one selected
// row at a time in selection order. It is what keeps the vectorized path
// total: subqueries hit the same memo cache, CASE keeps its row-major
// short-circuit, and so on.
type vecFallback struct {
	fn  evalFn
	typ sqltypes.Kind
}

func (v *vecFallback) eval(rt *runtime, vb *vecBatch, sel []int) (*vec.Col, error) {
	out := vec.NewCol(v.typ, len(vb.rows))
	for _, i := range sel {
		res, err := v.fn(rt, vb.rows[i])
		if err != nil {
			return nil, err
		}
		out.Set(i, res)
	}
	vb.fallbackRows += int64(len(sel))
	return out, nil
}

// runFilterVec is the columnar Filter: evaluate the predicate per batch,
// record keep bits, then compact in input order (same output order as
// the serial and morsel-parallel row paths).
func (rt *runtime) runFilterVec(n *plan.Filter, traits exprTraits, in []Row) ([]Row, error) {
	kinds := schemaKinds(n.Input.Schema())
	ve := rt.vecFilter(n, len(kinds))
	share := rt.scanShare(n.Input)
	keep := make([]bool, len(in))
	process := func(w *runtime, lo, hi int) error {
		for blo := lo; blo < hi; blo += vec.BatchRows {
			bhi := min(blo+vec.BatchRows, hi)
			if err := w.tickBatch(bhi - blo); err != nil {
				return err
			}
			vb := w.getBatchShared(share, blo, in[blo:bhi], kinds)
			sel := batchIota[:bhi-blo]
			c, err := ve.eval(w, vb, sel)
			if err != nil {
				return err
			}
			for _, i := range sel {
				keep[blo+i] = c.Value(i).IsTrue()
			}
			w.noteBatch(n, vb)
			w.putBatch(vb)
		}
		return nil
	}
	if f := rt.rowParallelism(len(in), traits); f.workers > 1 {
		rt.noteFanout(n, f.workers)
		err := rt.forEachChunk(len(in), f, func(w *runtime, _, _, lo, hi int) error {
			return process(w, lo, hi)
		})
		if err != nil {
			return nil, err
		}
	} else if err := process(rt, 0, len(in)); err != nil {
		return nil, err
	}
	var out []Row
	for i, k := range keep {
		if k {
			out = append(out, in[i])
		}
	}
	return out, nil
}

// runProjectVec is the columnar Project: evaluate every output
// expression over the batch, then reassemble rows.
func (rt *runtime) runProjectVec(n *plan.Project, traits exprTraits, in []Row) ([]Row, error) {
	kinds := schemaKinds(n.Input.Schema())
	ves := rt.vecProject(n, len(kinds))
	share := rt.scanShare(n.Input)
	out := make([]Row, len(in))
	process := func(w *runtime, lo, hi int) error {
		cols := make([]*vec.Col, len(ves))
		for blo := lo; blo < hi; blo += vec.BatchRows {
			bhi := min(blo+vec.BatchRows, hi)
			if err := w.tickBatch(bhi - blo); err != nil {
				return err
			}
			vb := w.getBatchShared(share, blo, in[blo:bhi], kinds)
			sel := batchIota[:bhi-blo]
			for j, ve := range ves {
				c, err := ve.eval(w, vb, sel)
				if err != nil {
					return err
				}
				cols[j] = c
			}
			for _, i := range sel {
				row := make(Row, len(cols))
				for j, c := range cols {
					row[j] = c.Value(i)
				}
				out[blo+i] = row
			}
			w.noteBatch(n, vb)
			w.putBatch(vb)
		}
		return nil
	}
	if f := rt.rowParallelism(len(in), traits); f.workers > 1 {
		rt.noteFanout(n, f.workers)
		err := rt.forEachChunk(len(in), f, func(w *runtime, _, _, lo, hi int) error {
			return process(w, lo, hi)
		})
		if err != nil {
			return nil, err
		}
	} else if err := process(rt, 0, len(in)); err != nil {
		return nil, err
	}
	return out, nil
}
