package exec

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// Run evaluates a plan and returns its rows.
func Run(n plan.Node, settings *Settings) ([]Row, error) {
	return RunContext(context.Background(), n, settings)
}

// RunContext evaluates a plan under ctx. Cancellation is cooperative:
// operator loops poll the context every cancelCheckRows rows and return
// a CodeCanceled/CodeTimeout *Error. When settings.Limits.Timeout is
// set and ctx has no deadline of its own, the timeout is applied here.
// Internal panics are recovered and surfaced as CodeRuntime errors.
func RunContext(ctx context.Context, n plan.Node, settings *Settings) (rows []Row, err error) {
	if settings == nil {
		settings = DefaultSettings()
	}
	if t := settings.Limits.Timeout; t > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, PanicError(r, PhaseExecute)
		}
		err = Wrap(err, CodeRuntime, PhaseExecute)
	}()
	rt := newRuntime(ctx, settings)
	return rt.run(n)
}

// run executes one operator. Besides dispatching to runNode it hosts
// the two cross-cutting per-operator duties: the FailOperator fault-
// injection site and the coarse resource accounting (every operator's
// materialized output is charged to the query budget once, here). When
// a Profile is attached it also records rows out and inclusive wall
// time per call.
func (rt *runtime) run(n plan.Node) ([]Row, error) {
	if err := failpoint(FailOperator); err != nil {
		return nil, err
	}
	p := rt.sh.prof
	if p == nil {
		rows, err := rt.runNode(n)
		if err == nil {
			err = rt.sh.bud.noteRows(len(rows), rowsBytes(rows))
		}
		return rows, err
	}
	m := p.NodeMetrics(rt.sub, n)
	start := time.Now()
	rows, err := rt.runNode(n)
	m.Record(len(rows), int64(time.Since(start)))
	if err == nil {
		err = rt.sh.bud.noteRows(len(rows), rowsBytes(rows))
	}
	return rows, err
}

// noteFanout records that operator n fanned out to workers goroutines.
func (rt *runtime) noteFanout(n plan.Node, workers int) {
	if s := rt.sh.settings.Stats; s != nil {
		atomic.AddInt64(&s.ParallelFanouts, 1)
	}
	if p := rt.sh.prof; p != nil {
		p.NodeMetrics(rt.sub, n).NoteWorkers(workers)
	}
}

// snapshotSource is a RowSource that reads its rows and their data
// state in one step (catalog.BaseTable); the rows of any other source
// are in the zero State.
type snapshotSource interface {
	Snapshot() ([][]sqltypes.Value, storage.State)
}

func (rt *runtime) runNode(n plan.Node) ([]Row, error) {
	switch n := n.(type) {
	case *plan.Scan:
		var rows []Row
		if src, ok := n.Source.(snapshotSource); ok {
			rows, rt.scanned = src.Snapshot()
		} else {
			rows, rt.scanned = n.Source.Rows(), storage.State{}
		}
		rt.sh.scans.Add(1)
		if s := rt.sh.settings.Stats; s != nil {
			atomic.AddInt64(&s.RowsScanned, int64(len(rows)))
		}
		return rows, nil

	case *plan.Values:
		out := make([]Row, len(n.Rows))
		for i, exprs := range n.Rows {
			row := make(Row, len(exprs))
			for j, e := range exprs {
				v, err := rt.evalOnce(e)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			out[i] = row
		}
		return out, nil

	case *plan.Filter:
		if p := rt.part; p != nil && p.filter == n {
			if rows, ok, err := p.lookup(rt); ok || err != nil {
				return rows, err
			}
		}
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		traits := rt.nodeTraits(n)
		if rt.vecUsable(traits) {
			return rt.runFilterVec(n, traits, in)
		}
		pred := rt.filterPred(n)
		if f := rt.rowParallelism(len(in), traits); f.workers > 1 {
			rt.noteFanout(n, f.workers)
			return rt.runFilterParallel(pred, in, f)
		}
		return rt.runFilterSerial(pred, in)

	case *plan.Project:
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		traits := rt.nodeTraits(n)
		if rt.vecUsable(traits) {
			return rt.runProjectVec(n, traits, in)
		}
		fns := rt.projectFns(n)
		if f := rt.rowParallelism(len(in), traits); f.workers > 1 {
			rt.noteFanout(n, f.workers)
			return rt.runProjectParallel(fns, in, f)
		}
		out := make([]Row, len(in))
		for i, row := range in {
			if err := rt.tick(); err != nil {
				return nil, err
			}
			proj, err := rt.projectRow(fns, row)
			if err != nil {
				return nil, err
			}
			out[i] = proj
		}
		return out, nil

	case *plan.Join:
		return rt.runJoin(n)

	case *plan.Aggregate:
		if rows, ok, err := rt.tryRollup(n); err != nil {
			return nil, err
		} else if ok {
			return rows, nil
		}
		return rt.runAggregate(n)

	case *plan.Sort:
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		return rt.sortRows(in, n.Items, rt.sortFns(n))

	case *plan.Limit:
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		offset := 0
		if n.Offset != nil {
			v, err := rt.evalOnce(n.Offset)
			if err != nil {
				return nil, err
			}
			if !v.Null {
				offset = int(v.I)
			}
		}
		if offset < 0 {
			offset = 0
		}
		if offset >= len(in) {
			return nil, nil
		}
		in = in[offset:]
		if n.Count != nil {
			v, err := rt.evalOnce(n.Count)
			if err != nil {
				return nil, err
			}
			if !v.Null && int(v.I) < len(in) {
				if v.I < 0 {
					return nil, nil
				}
				in = in[:v.I]
			}
		}
		return in, nil

	case *plan.Distinct:
		in, err := rt.run(n.Input)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out []Row
		for _, row := range in {
			if err := rt.tick(); err != nil {
				return nil, err
			}
			k := sqltypes.RowKey(row)
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
		}
		return out, nil

	case *plan.SetOp:
		return rt.runSetOp(n)

	case *plan.Window:
		return rt.runWindow(n)

	default:
		return nil, fmt.Errorf("internal error: cannot execute %T", n)
	}
}

// joinEnv bundles per-join helpers shared by the serial and parallel
// probe paths.
type joinEnv struct {
	j          *plan.Join
	prog       *joinProg
	leftWidth  int
	rightWidth int
}

func (e *joinEnv) concat(l, r Row) Row {
	row := make(Row, 0, e.leftWidth+e.rightWidth)
	row = append(row, l...)
	return append(row, r...)
}

func (e *joinEnv) nullRow(w int, cols []plan.Col) Row {
	row := make(Row, w)
	for i := range row {
		row[i] = sqltypes.Null(cols[i].Typ.Kind)
	}
	return row
}

func (e *joinEnv) residualOK(rt *runtime, row Row) (bool, error) {
	if e.prog.residual == nil {
		return true, nil
	}
	t, err := e.prog.residual(rt, row)
	return t == triTrue, err
}

// needRightMatched reports whether the join must track which right rows
// found a partner: only RIGHT and FULL joins null-pad unmatched right
// rows, so INNER/LEFT/SEMI/CROSS joins skip the bookkeeping entirely.
func (e *joinEnv) needRightMatched() bool {
	return e.j.Kind == plan.JoinRight || e.j.Kind == plan.JoinFull
}

// evalJoinKeys fills keys[lo:hi] (and nulls[lo:hi]) with the RowKey of
// the compiled key expressions over rows; a key tuple containing NULL
// never matches anything and is marked instead of hashed.
func evalJoinKeys(w *runtime, rows []Row, exprs []evalFn, keys []string, nulls []bool, lo, hi int) error {
	var key []byte
	for i := lo; i < hi; i++ {
		if err := w.tick(); err != nil {
			return err
		}
		hasNull := false
		key = key[:0]
		for _, e := range exprs {
			v, err := e(w, rows[i])
			if err != nil {
				return err
			}
			key = v.AppendKey(key)
			if v.Null {
				hasNull = true
			}
		}
		nulls[i] = hasNull
		if hasNull {
			keys[i] = ""
		} else {
			keys[i] = string(key)
		}
	}
	return nil
}

// joinKeys computes the join-key strings for one side, fanning out over
// morsels when the side is large and the key expressions are safe.
func (rt *runtime) joinKeys(rows []Row, fns []evalFn, traits exprTraits) ([]string, []bool, error) {
	keys := make([]string, len(rows))
	nulls := make([]bool, len(rows))
	if f := rt.rowParallelism(len(rows), traits); f.workers > 1 {
		err := rt.forEachChunk(len(rows), f, func(wr *runtime, _, _, lo, hi int) error {
			return evalJoinKeys(wr, rows, fns, keys, nulls, lo, hi)
		})
		if err != nil {
			return nil, nil, err
		}
		return keys, nulls, nil
	}
	if err := evalJoinKeys(rt, rows, fns, keys, nulls, 0, len(rows)); err != nil {
		return nil, nil, err
	}
	return keys, nulls, nil
}

func (rt *runtime) runJoin(j *plan.Join) ([]Row, error) {
	left, err := rt.run(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := rt.run(j.Right)
	if err != nil {
		return nil, err
	}
	env := &joinEnv{
		j:          j,
		prog:       rt.joinProg(j),
		leftWidth:  len(j.Left.Schema().Cols),
		rightWidth: len(j.Right.Schema().Cols),
	}

	var out []Row
	var rightMatched []bool
	if len(j.EquiLeft) > 0 {
		out, rightMatched, err = rt.runHashJoin(env, left, right)
	} else {
		out, rightMatched, err = rt.runNestedLoopJoin(env, left, right)
	}
	if err != nil {
		return nil, err
	}

	if env.needRightMatched() {
		for ri, rrow := range right {
			if !rightMatched[ri] {
				out = append(out, env.concat(env.nullRow(env.leftWidth, j.Left.Schema().Cols), rrow))
			}
		}
	}
	return out, nil
}

// probeChunk probes left[lo:hi] against the build index, appending
// output rows in left-row order; matched (when non-nil) records right
// rows that found a partner.
func (env *joinEnv) probeChunk(rt *runtime, left, right []Row, leftKeys []string, leftNulls []bool,
	index map[string][]int, matched []bool, lo, hi int) ([]Row, error) {
	j := env.j
	var out []Row
	for li := lo; li < hi; li++ {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		lrow := left[li]
		found := false
		if !leftNulls[li] {
			for _, ri := range index[leftKeys[li]] {
				row := env.concat(lrow, right[ri])
				ok, err := env.residualOK(rt, row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				found = true
				if matched != nil {
					matched[ri] = true
				}
				if j.Kind == plan.JoinSemi {
					break
				}
				out = append(out, row)
			}
		}
		switch j.Kind {
		case plan.JoinSemi:
			if found {
				out = append(out, lrow)
			}
		case plan.JoinLeft, plan.JoinFull:
			if !found {
				out = append(out, env.concat(lrow, env.nullRow(env.rightWidth, j.Right.Schema().Cols)))
			}
		}
	}
	return out, nil
}

// runHashJoin builds a hash index over the right (build) side and
// probes it with the left. Key evaluation on both sides and the probe
// loop fan out over morsels; map insertion and chunk reassembly stay in
// row order, so output is identical to the serial plan.
func (rt *runtime) runHashJoin(env *joinEnv, left, right []Row) ([]Row, []bool, error) {
	j := env.j

	rightKeys, rightNulls, err := rt.joinKeys(right, env.prog.right, env.prog.rightTraits)
	if err != nil {
		return nil, nil, err
	}
	index := make(map[string][]int, len(right))
	for ri := range right {
		if !rightNulls[ri] {
			index[rightKeys[ri]] = append(index[rightKeys[ri]], ri)
		}
	}

	leftKeys, leftNulls, err := rt.joinKeys(left, env.prog.left, env.prog.leftTraits)
	if err != nil {
		return nil, nil, err
	}

	f := rt.rowParallelism(len(left), env.prog.probeTraits)
	if f.workers > 1 {
		rt.noteFanout(j, f.workers)
	}
	if f.workers <= 1 {
		var matched []bool
		if env.needRightMatched() {
			matched = make([]bool, len(right))
		}
		out, err := env.probeChunk(rt, left, right, leftKeys, leftNulls, index, matched, 0, len(left))
		return out, matched, err
	}

	chunkOut := make([][]Row, numChunks(len(left), f.grain))
	workerMatched := make([][]bool, f.workers)
	err = rt.forEachChunk(len(left), f, func(w *runtime, worker, chunk, lo, hi int) error {
		var matched []bool
		if env.needRightMatched() {
			matched = workerMatched[worker]
			if matched == nil {
				matched = make([]bool, len(right))
				workerMatched[worker] = matched
			}
		}
		rows, err := env.probeChunk(w, left, right, leftKeys, leftNulls, index, matched, lo, hi)
		if err != nil {
			return err
		}
		chunkOut[chunk] = rows
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	var out []Row
	for _, rows := range chunkOut {
		out = append(out, rows...)
	}
	var matched []bool
	if env.needRightMatched() {
		matched = make([]bool, len(right))
		for _, wm := range workerMatched {
			for ri, m := range wm {
				if m {
					matched[ri] = true
				}
			}
		}
	}
	return out, matched, nil
}

// runNestedLoopJoin handles cross joins and arbitrary join conditions.
func (rt *runtime) runNestedLoopJoin(env *joinEnv, left, right []Row) ([]Row, []bool, error) {
	j := env.j
	var matched []bool
	if env.needRightMatched() {
		matched = make([]bool, len(right))
	}
	var out []Row
	for _, lrow := range left {
		found := false
		for ri, rrow := range right {
			if err := rt.tick(); err != nil {
				return nil, nil, err
			}
			row := env.concat(lrow, rrow)
			ok, err := env.residualOK(rt, row)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			found = true
			if matched != nil {
				matched[ri] = true
			}
			if j.Kind == plan.JoinSemi {
				break
			}
			out = append(out, row)
		}
		switch j.Kind {
		case plan.JoinSemi:
			if found {
				out = append(out, lrow)
			}
		case plan.JoinLeft, plan.JoinFull:
			if !found {
				out = append(out, env.concat(lrow, env.nullRow(env.rightWidth, j.Right.Schema().Cols)))
			}
		}
	}
	return out, matched, nil
}

func (rt *runtime) sortRows(rows []Row, items []plan.SortItem, keyFns []evalFn) ([]Row, error) {
	keys := make([][]sqltypes.Value, len(rows))
	for i, row := range rows {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		k := make([]sqltypes.Value, len(items))
		for j, f := range keyFns {
			v, err := f(rt, row)
			if err != nil {
				return nil, err
			}
			k[j] = v
		}
		keys[i] = k
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j, item := range items {
			c, err := compareForSort(ka[j], kb[j], item)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([]Row, len(rows))
	for i, ix := range idx {
		out[i] = rows[ix]
	}
	return out, nil
}

func compareForSort(a, b sqltypes.Value, item plan.SortItem) (int, error) {
	if a.Null || b.Null {
		if a.Null && b.Null {
			return 0, nil
		}
		less := b.Null
		if item.NullsFirst {
			less = a.Null
		}
		if less {
			return -1, nil
		}
		return 1, nil
	}
	c, err := sqltypes.Compare(a, b)
	if err != nil {
		return 0, err
	}
	if item.Desc {
		c = -c
	}
	return c, nil
}

func (rt *runtime) runSetOp(n *plan.SetOp) ([]Row, error) {
	left, err := rt.run(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := rt.run(n.Right)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "UNION":
		all := append(append([]Row{}, left...), right...)
		if n.All {
			return all, nil
		}
		seen := map[string]bool{}
		var out []Row
		for _, row := range all {
			if err := rt.tick(); err != nil {
				return nil, err
			}
			k := sqltypes.RowKey(row)
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
		}
		return out, nil
	case "INTERSECT":
		counts := map[string]int{}
		for _, row := range right {
			counts[sqltypes.RowKey(row)]++
		}
		var out []Row
		emitted := map[string]bool{}
		for _, row := range left {
			if err := rt.tick(); err != nil {
				return nil, err
			}
			k := sqltypes.RowKey(row)
			if counts[k] > 0 {
				if n.All {
					counts[k]--
					out = append(out, row)
				} else if !emitted[k] {
					emitted[k] = true
					out = append(out, row)
				}
			}
		}
		return out, nil
	case "EXCEPT":
		counts := map[string]int{}
		for _, row := range right {
			counts[sqltypes.RowKey(row)]++
		}
		var out []Row
		emitted := map[string]bool{}
		for _, row := range left {
			if err := rt.tick(); err != nil {
				return nil, err
			}
			k := sqltypes.RowKey(row)
			if n.All {
				if counts[k] > 0 {
					counts[k]--
					continue
				}
				out = append(out, row)
			} else {
				if counts[k] == 0 && !emitted[k] {
					emitted[k] = true
					out = append(out, row)
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown set operation %s", n.Op)
	}
}
