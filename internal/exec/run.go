package exec

import (
	"context"
	"fmt"
	"slices"
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
// While it runs, the execution counts as in progress: every other
// execution fans out to one worker fewer (spareWorkers).
func RunContext(ctx context.Context, n plan.Node, settings *Settings) ([]Row, error) {
	return RunGathered(ctx, n, nil, settings)
}

// execute runs body on a fresh runtime as one execution: it counts as
// in progress, settings (nil: the defaults) bound it with their timeout
// when ctx has no deadline, a panic is recovered as a CodeRuntime error,
// and an error is wrapped in the taxonomy.
func execute(ctx context.Context, settings *Settings, body func(rt *runtime) error) (err error) {
	inProgress.Add(1)
	defer inProgress.Add(-1)
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
			err = PanicError(r, PhaseExecute)
		}
		err = Wrap(err, CodeRuntime, PhaseExecute)
	}()
	return body(newRuntime(ctx, settings))
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
		rt.inputRows = len(rows)
		if err == nil {
			err = rt.charge(rows)
		}
		return rows, err
	}
	m := p.NodeMetrics(rt.sub, n)
	start := time.Now()
	rows, err := rt.runNode(n)
	m.Record(len(rows), int64(time.Since(start)))
	rt.inputRows = len(rows)
	if err == nil {
		err = rt.charge(rows)
	}
	return rows, err
}

// charge notes an operator's output against the budget.
func (rt *runtime) charge(rows []Row) error {
	return rt.sh.bud.noteRows(len(rows), rowsBytes(rows))
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
		if g, ok := rt.sh.gathered[n.Source]; ok {
			rows, rt.scanned = g, storage.State{}
		} else if src, ok := n.Source.(snapshotSource); ok {
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
		rt.inputRows = len(n.Rows)
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
		if p := rt.part; p != nil && p.fold == keepRows && p.filter == n {
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
		if err := rt.projectRows(fns, in, out, 0, len(in)); err != nil {
			return nil, err
		}
		return out, nil

	case *plan.Join:
		return rt.runJoin(n)

	case *plan.LinkRead:
		return rt.readLinked(n)

	case *plan.Aggregate:
		if m := rt.merged; m != nil && m.agg == n {
			return m.rows, nil
		}
		if rows, ok, err := rt.tryRollup(n); err != nil {
			return nil, err
		} else if ok {
			return rows, nil
		}
		if p := rt.part; p != nil && p.agg == n {
			if rows, ok, err := p.aggregate(rt); ok || err != nil {
				return rows, err
			}
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
	// leftNulls and rightNulls are the NULL padding of each side, read
	// by outer joins.
	leftNulls, rightNulls Row
}

func newJoinEnv(rt *runtime, j *plan.Join) *joinEnv {
	env := &joinEnv{
		j:          j,
		prog:       rt.joinProg(j),
		leftWidth:  len(j.Left.Schema().Cols),
		rightWidth: len(j.Right.Schema().Cols),
	}
	switch j.Kind {
	case plan.JoinLeft, plan.JoinFull:
		env.rightNulls = nullRow(j.Right.Schema().Cols)
	}
	if env.needRightMatched() {
		env.leftNulls = nullRow(j.Left.Schema().Cols)
	}
	return env
}

func nullRow(cols []plan.Col) Row {
	row := make(Row, len(cols))
	for i := range row {
		row[i] = sqltypes.Null(cols[i].Typ.Kind)
	}
	return row
}

// concat fills dst, a row of the join's output width, with l then r.
func (e *joinEnv) concat(dst, l, r Row) Row {
	copy(dst, l)
	copy(dst[e.leftWidth:], r)
	return dst
}

// rowBlock carves fixed-width output rows out of blocks of rows rows
// each, so an operator allocates per block instead of per row. A row is
// cut with cap = len: appending to it copies it rather than writing into
// its neighbour.
type rowBlock struct {
	free  []sqltypes.Value
	width int
	rows  int
	// spare is a row handed back by reuse, returned by the next call of
	// next before anything is carved.
	spare Row
}

// maxBlockRows bounds a block whose row count is not known in advance.
const maxBlockRows = 1024

func newRowBlock(width, rows int) *rowBlock {
	return &rowBlock{width: width, rows: max(rows, 1)}
}

func (b *rowBlock) next() Row {
	if row := b.spare; row != nil {
		b.spare = nil
		return row
	}
	if len(b.free) < b.width {
		b.free = make([]sqltypes.Value, b.width*b.rows)
	}
	row := b.free[:b.width:b.width]
	b.free = b.free[b.width:]
	return row
}

// reuse hands back a row from next that the caller did not keep.
func (b *rowBlock) reuse(row Row) { b.spare = row }

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

// appendJoinKey encodes the key tuple of the compiled key expressions
// over row onto dst; null reports a NULL part, and a tuple holding one
// never matches anything.
func appendJoinKey(w *runtime, exprs []evalFn, row Row, dst []byte) (key []byte, null bool, err error) {
	for _, e := range exprs {
		v, err := e(w, row)
		if err != nil {
			return dst, false, err
		}
		null = null || v.Null
		dst = v.AppendKey(dst)
	}
	return dst, null, nil
}

// joinIndex is the hash index over a join's build (right) side. Rows
// with equal key tuples form a chain in ascending order: slots maps an
// encoded tuple to its chain, first holds 1 + the chain's first row and
// next 1 + the row after each row (0 ends a chain). Building it
// allocates per distinct key, not per row.
type joinIndex struct {
	slots map[string]int
	first []int
	next  []int
}

func (rt *runtime) buildJoinIndex(fns []evalFn, right []Row) (*joinIndex, error) {
	idx := &joinIndex{slots: map[string]int{}, next: make([]int, len(right))}
	var last []int // per chain: 1 + its last row
	var key []byte
	for ri, row := range right {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		var null bool
		var err error
		if key, null, err = appendJoinKey(rt, fns, row, key[:0]); err != nil {
			return nil, err
		}
		if null {
			continue
		}
		if s, ok := idx.slots[string(key)]; ok {
			idx.next[last[s]-1] = ri + 1
			last[s] = ri + 1
			continue
		}
		idx.slots[string(key)] = len(idx.first)
		idx.first = append(idx.first, ri+1)
		last = append(last, ri+1)
	}
	return idx, nil
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
	env := newJoinEnv(rt, j)

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
		blk := newRowBlock(env.leftWidth+env.rightWidth, min(len(right), maxBlockRows))
		for ri, rrow := range right {
			if !rightMatched[ri] {
				out = append(out, env.concat(blk.next(), env.leftNulls, rrow))
			}
		}
	}
	return out, nil
}

// probeChunk probes left[lo:hi] against the build index, returning the
// output rows in left-row order; matched (when non-nil) records right
// rows that found a partner. Left keys are encoded into one scratch
// buffer and output rows carved from blocks, so the chunk allocates per
// block of output, not per row.
func (env *joinEnv) probeChunk(rt *runtime, left, right []Row, index *joinIndex, matched []bool, lo, hi int) ([]Row, error) {
	out := &joinRows{blk: newRowBlock(env.leftWidth+env.rightWidth, min(hi-lo, maxBlockRows))}
	p := &probe{env: env, index: index, right: right, matched: matched, out: out}
	if err := emitRows(rt, left, lo, hi, p); err != nil {
		return nil, err
	}
	return out.rows, nil
}

// joinRows is the materializing sink of a hash join: output rows carved
// from blocks, kept in order.
type joinRows struct {
	blk  *rowBlock
	rows []Row
}

func (o *joinRows) next() Row     { return o.blk.next() }
func (o *joinRows) reuse(row Row) { o.blk.reuse(row) }
func (o *joinRows) emit(_ *runtime, row Row, _ int) error {
	o.rows = append(o.rows, row)
	return nil
}

// probe is a hash join's probe loop body: each left row it is handed is
// matched against the build index and the joined rows — built in rows
// out hands out — go to out, which keeps them (joinRows) or folds them
// (aggFold, fuse.go). A joined row's order is (left row, rank of the
// match in its chain), so the order of the output the materialized join
// makes.
type probe struct {
	env     *joinEnv
	index   *joinIndex
	right   []Row
	matched []bool
	out     joinSink
	key     []byte
	// in counts the left rows handed in: a fused probe Filter's output.
	in tally
}

func (p *probe) emit(w *runtime, lrow Row, li int) error {
	p.in.add(lrow)
	env := p.env
	var null bool
	var err error
	if p.key, null, err = appendJoinKey(w, env.prog.left, lrow, p.key[:0]); err != nil {
		return err
	}
	found := false
	if s, ok := p.index.slots[string(p.key)]; ok && !null {
		for ri, rank := p.index.first[s]-1, 0; ri >= 0; ri, rank = p.index.next[ri]-1, rank+1 {
			row := env.concat(p.out.next(), lrow, p.right[ri])
			ok, err := env.residualOK(w, row)
			if err != nil {
				return err
			}
			if !ok {
				p.out.reuse(row)
				continue
			}
			found = true
			if p.matched != nil {
				p.matched[ri] = true
			}
			if env.j.Kind == plan.JoinSemi {
				p.out.reuse(row)
				break
			}
			if err := p.out.emit(w, row, li<<32|rank); err != nil {
				return err
			}
		}
	}
	switch env.j.Kind {
	case plan.JoinSemi:
		if found {
			return p.out.emit(w, lrow, li<<32)
		}
	case plan.JoinLeft, plan.JoinFull:
		if !found {
			return p.out.emit(w, env.concat(p.out.next(), lrow, env.rightNulls), li<<32)
		}
	}
	return nil
}

// runHashJoin builds a hash index over the right (build) side and
// probes it with the left. The probe loop, left-key encoding included,
// fans out over morsels; chunk reassembly stays in row order, so output
// is identical to the serial plan.
func (rt *runtime) runHashJoin(env *joinEnv, left, right []Row) ([]Row, []bool, error) {
	j := env.j
	index, err := rt.buildJoinIndex(env.prog.right, right)
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
		out, err := env.probeChunk(rt, left, right, index, matched, 0, len(left))
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
		rows, err := env.probeChunk(w, left, right, index, matched, lo, hi)
		if err != nil {
			return err
		}
		chunkOut[chunk] = rows
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	n := 0
	for _, rows := range chunkOut {
		n += len(rows)
	}
	out := make([]Row, 0, n)
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
	blk := newRowBlock(env.leftWidth+env.rightWidth, min(len(left)*len(right), maxBlockRows))
	var out []Row
	for _, lrow := range left {
		found := false
		for ri, rrow := range right {
			if err := rt.tick(); err != nil {
				return nil, nil, err
			}
			row := env.concat(blk.next(), lrow, rrow)
			ok, err := env.residualOK(rt, row)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				blk.reuse(row)
				continue
			}
			found = true
			if matched != nil {
				matched[ri] = true
			}
			if j.Kind == plan.JoinSemi {
				blk.reuse(row)
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
				out = append(out, env.concat(blk.next(), lrow, env.rightNulls))
			}
		}
	}
	return out, matched, nil
}

// sortRows orders rows by items, stably: rows with equal keys keep their
// input order, because the input position is the last key. Every row's
// key tuple is carved from one block, so a call allocates per call, not
// per row.
func (rt *runtime) sortRows(rows []Row, items []plan.SortItem, keyFns []evalFn) ([]Row, error) {
	w := len(items)
	keys := make([]sqltypes.Value, len(rows)*w)
	for i, row := range rows {
		if err := rt.tick(); err != nil {
			return nil, err
		}
		k := keys[i*w : (i+1)*w]
		for j, f := range keyFns {
			v, err := f(rt, row)
			if err != nil {
				return nil, err
			}
			k[j] = v
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	slices.SortFunc(idx, func(a, b int) int {
		ka, kb := keys[a*w:(a+1)*w], keys[b*w:(b+1)*w]
		for j, item := range items {
			c, err := compareForSort(ka[j], kb[j], item)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				return c
			}
		}
		return a - b
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
