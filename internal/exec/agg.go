package exec

import (
	"fmt"
	"sort"
	"unsafe"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Hash aggregation. An Aggregate is compiled once per plan into an
// aggEnv: its group expressions and, for every call, how a row reaches
// the call's state — decided once, not per row (see callKind) — and
// which operators beneath it it folds in its own row loop (fuse.go). A
// grouping set's table carves its groups, their state slices, their key
// tuples, their fn.AggStates and the bytes of their map keys from blocks
// that grow geometrically, so a new group allocates nothing but its
// share of a block, and a row of an existing group allocates nothing.
// The serial, chunk-merge and group-partitioned paths, PartialAggregate,
// MergePartials, the vectorized accumulate and the folding partition
// (partition.go) all fold through it. A POSITIONS call keeps no state:
// each group lists the positions its rows carry (posList) and emit
// publishes them (link.go).

// groupAcc accumulates one group for one grouping set.
type groupAcc struct {
	keyVals []sqltypes.Value // values of this set's keys, indexed by key position
	states  []fn.AggState
	// dedup (per DISTINCT call) and within (per WITHIN DISTINCT call:
	// each key tuple and the argument values first seen for it, to
	// enforce functional dependence) exist only when some call needs
	// them.
	dedup  []map[string]bool
	within []map[string]string
	// order is the position of the group's first input row in the
	// input's order (stable output order); fuse.go says what it is when
	// the input is not materialized.
	order int
	// With POSITIONS calls: pos is the list of the table the group was
	// made in, head 1 + the group's newest entry there (0: none), and more
	// the same group of later chunks, merged into this one.
	pos  *posList
	head int32
	more *groupAcc
}

// callKind is how accumulate hands a row to one aggregate call's state.
type callKind uint8

const (
	// callGeneral evaluates the arguments onto the runtime's argument
	// stack; DISTINCT and WITHIN DISTINCT calls take it.
	callGeneral callKind = iota
	// callGrouping is GROUPING(k): no state, emit computes it.
	callGrouping
	// callStar is COUNT(*): Add(nil).
	callStar
	// callColumn has one argument, an input column: Add is handed the
	// row's own cell.
	callColumn
	// callPositions is POSITIONS(col), a context link by position: no
	// state; the group lists the positions its rows carry in col and emit
	// publishes them (link.go).
	callPositions
)

// aggCall is the compiled form of one aggregate call.
type aggCall struct {
	kind      callKind
	name      string
	def       *fn.Agg
	argTypes  []sqltypes.Type
	skipNulls bool
	distinct  bool
	col       int // callColumn, callPositions: the argument's input column
	slot      int // callPositions: the call's place in a position entry
	link      *plan.RowLink
	sets      bool   // callPositions: the column names sets (plan.AggCall.Sets)
	filter    predFn // nil when the call has no FILTER
	args      []evalFn
	within    []evalFn
}

// aggEnv is the compiled form of an Aggregate, shared read-only by every
// path and worker that folds its input.
type aggEnv struct {
	n      *plan.Aggregate
	groups []evalFn
	calls  []aggCall
	// distinct: some call is DISTINCT or WITHIN DISTINCT, so groups carry
	// dedup and within maps.
	distinct bool
	// positions counts the POSITIONS calls: groups list their rows'
	// positions.
	positions int
	// fuse is the chain beneath the Aggregate that its row loop runs
	// (fuse.go); zero when it materializes its input.
	fuse fusion
}

func newAggEnv(n *plan.Aggregate) (*aggEnv, error) {
	env := &aggEnv{n: n, groups: compileExprs(n.GroupExprs), calls: make([]aggCall, len(n.Aggs)), fuse: planFusion(n)}
	for i := range n.Aggs {
		call := &n.Aggs[i]
		c := &env.calls[i]
		c.name = call.Name
		if call.Name == "GROUPING" {
			c.kind = callGrouping
			continue
		}
		if call.Link != nil {
			cr, ok := call.Args[0].(*plan.ColRef)
			if !ok {
				return nil, fmt.Errorf("internal error: POSITIONS of %s", call.Args[0])
			}
			c.kind, c.col, c.slot, c.link, c.sets = callPositions, cr.Index, env.positions, call.Link, call.Sets
			env.positions++
			continue
		}
		def, ok := fn.LookupAgg(call.Name)
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %s at runtime", call.Name)
		}
		c.def, c.argTypes, c.skipNulls = def, call.ArgTypes(), def.SkipNulls
		c.distinct = call.Distinct
		if call.Filter != nil {
			c.filter = compilePred(call.Filter)
		}
		c.args, c.within = compileExprs(call.Args), compileExprs(call.WithinDistinct)
		switch {
		case call.Distinct || len(call.WithinDistinct) > 0:
			env.distinct = true
		case len(call.Args) == 0:
			c.kind = callStar
		case len(call.Args) == 1:
			if cr, ok := call.Args[0].(*plan.ColRef); ok {
				c.kind, c.col = callColumn, cr.Index
			}
		}
	}
	return env, nil
}

// aggEnv returns n's compiled form from the program cache.
func (rt *runtime) aggEnv(n *plan.Aggregate) (*aggEnv, error) {
	p := rt.rowProg(n, func() any {
		env, err := newAggEnv(n)
		if err != nil {
			return err
		}
		return env
	})
	if err, ok := p.(error); ok {
		return nil, err
	}
	return p.(*aggEnv), nil
}

// maskKeyVals fills the full-width key tuple kv with this set's columns
// of keyVals and NULL everywhere else.
func maskKeyVals(kv []sqltypes.Value, set []int, keyVals []sqltypes.Value) {
	for j := range kv {
		kv[j] = sqltypes.Null(sqltypes.KindUnknown)
	}
	for _, j := range set {
		kv[j] = keyVals[j]
	}
}

// chunkMergeable reports whether two-phase (partial-state merge)
// parallel aggregation is exact for this query: every aggregate's
// partial states must merge exactly (no floating-point accumulation),
// and DISTINCT / WITHIN DISTINCT need the group's full row stream in
// one place, so they disqualify the chunk-merge path.
func (env *aggEnv) chunkMergeable() bool {
	if env.distinct {
		return false
	}
	for i := range env.calls {
		c := &env.calls[i]
		if c.def != nil && !c.def.MergesExactly(c.argTypes) {
			return false
		}
	}
	return true
}

// setTable is one grouping set's hash table. accs, states, keys and
// keyBytes are the free tails of the blocks its groups are carved from;
// carved counts the groups made so far, and the next block holds as many
// again, up to maxGroupBlock — so a one-group table makes one-element
// blocks.
type setTable struct {
	groups   map[string]*groupAcc
	accs     []groupAcc
	states   []fn.AggState
	keys     []sqltypes.Value
	keyBytes []byte
	carved   int
	// pos holds the position entries of the table's groups when the
	// Aggregate has POSITIONS calls.
	pos *posList
}

// posList is one table's POSITIONS entries, one per row folded into one
// of its groups: vals holds the position each call's column carries (-1
// for NULL), env.positions of them per entry, and prev 1 + the entry
// before it in its group (0 ends the group's list). A row costs two
// appends and no hashing.
type posList struct {
	vals, prev []int32
}

const maxGroupBlock = 1024

// accumulateFn folds in[lo:hi] into tables on the given runtime; it is
// either the row-at-a-time accumulateRows or the vectorized variant.
type accumulateFn func(w *runtime, env *aggEnv, tables []setTable, in []Row, lo, hi int) error

func newSetTables(n int) []setTable {
	tables := make([]setTable, n)
	for i := range tables {
		tables[i] = setTable{groups: map[string]*groupAcc{}}
	}
	return tables
}

// newTables makes the tables one fold fills: one per grouping set, whose
// position lists, with POSITIONS calls, have room for rows rows.
func (env *aggEnv) newTables(rows int) []setTable {
	tables := newSetTables(len(env.n.Sets))
	if env.positions > 0 {
		for i := range tables {
			tables[i].pos = &posList{vals: make([]int32, 0, rows*env.positions), prev: make([]int32, 0, rows)}
		}
	}
	return tables
}

// addPositions appends the positions row carries to acc's list.
func (t *setTable) addPositions(env *aggEnv, acc *groupAcc, row Row) {
	if t.pos == nil {
		t.pos = &posList{}
	}
	p := t.pos
	for i := range env.calls {
		if c := &env.calls[i]; c.kind == callPositions {
			v, x := row[c.col], int32(-1)
			if !v.Null {
				x = int32(v.I)
			}
			p.vals = append(p.vals, x)
		}
	}
	acc.pos = p
	p.prev = append(p.prev, acc.head)
	acc.head = int32(len(p.prev))
}

// newGroup carves a group whose first input row is order from t's
// blocks: set's columns of keyVals, fresh states. A block's states are
// made with it, one allocation per call (fn.Agg.NewBlock).
func (t *setTable) newGroup(env *aggEnv, set []int, keyVals []sqltypes.Value, order int) *groupAcc {
	na, nk := len(env.calls), len(env.n.GroupExprs)
	if len(t.accs) == 0 {
		b := min(max(t.carved, 1), maxGroupBlock)
		t.accs = make([]groupAcc, b)
		t.states = make([]fn.AggState, b*na)
		for i := range env.calls {
			if c := &env.calls[i]; c.def != nil {
				c.def.NewBlock(c.argTypes, t.states[i:], na)
			}
		}
		t.keys = make([]sqltypes.Value, b*nk)
	}
	t.carved++
	acc := &t.accs[0]
	t.accs = t.accs[1:]
	acc.states, t.states = t.states[:na:na], t.states[na:]
	acc.keyVals, t.keys = t.keys[:nk:nk], t.keys[nk:]
	maskKeyVals(acc.keyVals, set, keyVals)
	acc.order = order
	if env.distinct {
		acc.dedup, acc.within = make([]map[string]bool, na), make([]map[string]string, na)
		for i, call := range env.n.Aggs {
			if call.Distinct {
				acc.dedup[i] = map[string]bool{}
			}
			if len(call.WithinDistinct) > 0 {
				acc.within[i] = map[string]string{}
			}
		}
	}
	return acc
}

// insert files acc under key. The map keeps a string over bytes carved
// from t's key block, which is only ever appended to: the bytes under a
// string handed out never change.
func (t *setTable) insert(key []byte, acc *groupAcc) {
	if len(key) == 0 {
		t.groups[""] = acc
		return
	}
	if cap(t.keyBytes)-len(t.keyBytes) < len(key) {
		t.keyBytes = make([]byte, 0, len(key)*min(max(t.carved, 1), maxGroupBlock))
	}
	off := len(t.keyBytes)
	t.keyBytes = append(t.keyBytes, key...)
	t.groups[unsafe.String(&t.keyBytes[off], len(key))] = acc
}

// group returns the group of key in t, carving and filing a new one
// (first input row order) when there is none. The probe does not copy
// key.
func (t *setTable) group(env *aggEnv, key []byte, set []int, keyVals []sqltypes.Value, order int) *groupAcc {
	acc := t.groups[string(key)]
	if acc == nil {
		acc = t.newGroup(env, set, keyVals, order)
		t.insert(key, acc)
	}
	return acc
}

// runAggregate evaluates grouping-set hash aggregation. The input is
// scanned once; every grouping set maintains its own hash table, so
// ROLLUP/CUBE cost one pass regardless of the number of sets. When the
// input is a Filter or a hash join the Aggregate may run them in its own
// row loop (fuse.go). With spare workers the loop runs in parallel:
// either by chunk-merging partial states (exact-merge aggregates) or by
// partitioning groups across workers (order-sensitive aggregates); both
// order groups by first input row, reproducing the serial output exactly.
// The worker count is taken once, before the fusion check, and the fold
// keeps it: what may fuse depends on whether the fold fans out.
func (rt *runtime) runAggregate(n *plan.Aggregate) ([]Row, error) {
	env, err := rt.aggEnv(n)
	if err != nil {
		return nil, err
	}
	fd, err := rt.openFeed(env, rt.spareWorkers())
	if err != nil {
		return nil, err
	}
	tables, rows, err := rt.foldFeed(env, fd)
	if err != nil {
		return nil, err
	}
	var pf *posFold
	if env.positions > 0 {
		pf = &posFold{rt: rt, stride: env.positions, buf: make([]int32, 0, rows*len(n.Sets)*env.positions)}
	}
	return env.emit(tables, rows, pf)
}

// foldFeed folds what fd produces into one table per grouping set and
// returns them with the number of input rows they hold. A fused chain is
// then charged to the budget, and reported, as if it had materialized
// its output.
func (rt *runtime) foldFeed(env *aggEnv, fd *feed) ([]setTable, int, error) {
	n := env.n

	// The vectorized accumulate shares the groupAcc machinery, so it
	// slots into both the serial and the chunk-merge parallel paths. The
	// group-partitioned path (order-sensitive aggregates with spare
	// workers) stays row-at-a-time: each worker skips most rows, which
	// defeats batching.
	traits := rt.nodeTraits(n)
	accum := (*runtime).accumulateRows
	if !fd.fused() && rt.vecUsable(traits) && env.vecAggOK() {
		vea := rt.vecAgg(env, n.Input.Schema())
		share := rt.scanShare(n.Input)
		accum = func(w *runtime, env *aggEnv, tables []setTable, in []Row, lo, hi int) error {
			return w.accumulateRowsVec(env, vea, share, tables, in, lo, hi)
		}
	}

	var tables []setTable
	var err error
	f := rowFanout(fd.workers, len(fd.rows), traits)
	if f.workers > 1 {
		rt.noteFanout(n, f.workers)
		fd.noteFanout(rt, f.workers)
		if env.chunkMergeable() {
			tables, err = rt.aggChunkMerge(env, fd, f, accum)
		} else {
			tables, err = rt.aggGroupPartitioned(env, fd, f)
		}
	} else {
		fd.passes = fd.tallies(1)
		tables, err = rt.foldChunk(env, fd, accum, 0, 0, len(fd.rows))
	}
	if err != nil {
		return nil, 0, err
	}
	rows := len(fd.rows)
	if fd.fused() {
		if rows, err = rt.settle(fd); err != nil {
			return nil, 0, err
		}
	}
	if env.positions > 0 {
		// The position lists and the sets they publish.
		err = rt.sh.bud.noteMem(int64(4 * rows * len(n.Sets) * (2 + env.positions)))
	}
	return tables, rows, err
}

// foldChunk folds source rows [lo, hi) of fd, chunk chunk of the run,
// into fresh tables.
func (w *runtime) foldChunk(env *aggEnv, fd *feed, accum accumulateFn, chunk, lo, hi int) ([]setTable, error) {
	tables := env.newTables(hi - lo)
	if !fd.fused() {
		return tables, accum(w, env, tables, fd.rows, lo, hi)
	}
	return tables, fd.pass(w, chunk, lo, hi, env.newFold(tables, fd))
}

// aggFold is the sink that folds rows into one set of grouping-set
// tables, each the moment it is produced: by a materialized input's
// loop (accumulateRows) or by a fused chain's (fuse.go). The key tuple,
// its encoding and the row a fused join builds each joined row in are
// its own scratch, so a row of an existing group allocates nothing.
type aggFold struct {
	env     *aggEnv
	tables  []setTable
	keyVals []sqltypes.Value
	key     []byte
	scratch Row
	in      tally
}

// newFold makes the fold of tables; fd is nil for a materialized input.
func (env *aggEnv) newFold(tables []setTable, fd *feed) *aggFold {
	f := &aggFold{env: env, tables: tables, keyVals: make([]sqltypes.Value, len(env.n.GroupExprs))}
	if fd != nil && fd.join != nil {
		f.scratch = make(Row, fd.join.env.leftWidth+fd.join.env.rightWidth)
	}
	return f
}

// emit folds row, whose place in the input's order is order, into the
// group of every grouping set.
func (f *aggFold) emit(w *runtime, row Row, order int) error {
	f.in.add(row)
	env := f.env
	for j, g := range env.groups {
		v, err := g(w, row)
		if err != nil {
			return err
		}
		f.keyVals[j] = v
	}
	for si, set := range env.n.Sets {
		t := &f.tables[si]
		f.key = appendSetKey(f.key[:0], set, f.keyVals)
		acc := t.group(env, f.key, set, f.keyVals, order)
		if env.positions > 0 {
			t.addPositions(env, acc, row)
		}
		if err := w.accumulate(env, acc, row); err != nil {
			return err
		}
	}
	return nil
}

// next and reuse make the fold a join's sink: every joined row is built
// in the one scratch row, which the fold reads and does not keep.
func (f *aggFold) next() Row     { return f.scratch }
func (f *aggFold) reuse(Row)     {}
func (f *aggFold) count() *tally { return &f.in }

// accumulateRows folds rows[lo:hi] of a materialized input into tables,
// creating groups keyed by each grouping set. Group order is the input
// row index.
func (rt *runtime) accumulateRows(env *aggEnv, tables []setTable, in []Row, lo, hi int) error {
	return emitRows(rt, in, lo, hi, env.newFold(tables, nil))
}

// aggChunkMerge is the two-phase parallel path: each chunk folds its
// contiguous range of the feed's source rows into private partial
// tables, then partials are merged left-to-right in chunk order.
// Restricted to exact-merge aggregates, so the result is bit-identical
// to one serial pass. A merged group's position lists stay where they
// were made: the groups of later chunks are chained to it (more).
func (rt *runtime) aggChunkMerge(env *aggEnv, fd *feed, f fanout, accum accumulateFn) ([]setTable, error) {
	chunkTables := make([][]setTable, numChunks(len(fd.rows), f.grain))
	fd.passes = fd.tallies(len(chunkTables))
	err := rt.forEachChunk(len(fd.rows), f, func(w *runtime, _, chunk, lo, hi int) error {
		t, err := w.foldChunk(env, fd, accum, chunk, lo, hi)
		chunkTables[chunk] = t
		return err
	})
	if err != nil {
		return nil, err
	}

	tables := newSetTables(len(env.n.Sets))
	for _, ct := range chunkTables {
		for si := range ct {
			for key, acc := range ct[si].groups {
				dst := tables[si].groups[key]
				if dst == nil {
					tables[si].groups[key] = acc
					continue
				}
				// dst holds earlier chunks' rows; acc extends it.
				for ai := range dst.states {
					if dst.states[ai] == nil {
						continue
					}
					if err := dst.states[ai].Merge(acc.states[ai]); err != nil {
						return nil, err
					}
				}
				if acc.order < dst.order {
					dst.order = acc.order
				}
				if env.positions > 0 {
					acc.more, dst.more = dst.more, acc
				}
			}
		}
	}
	return tables, nil
}

// aggGroupPartitioned is the fallback parallel path for order-sensitive
// aggregates (floating-point SUM/AVG/VAR, DISTINCT, WITHIN DISTINCT):
// group keys are computed over morsels of the feed — a fused Filter
// decides there which rows count — then groups are partitioned across
// workers by key hash, and each worker folds its groups' rows in
// ascending input order — exactly the serial accumulation per group.
// The group-expression values of every row live in one flat array and a
// set key is encoded into scratch where it is needed, so neither phase
// allocates per row. A fused join never comes here: its rows would have
// to be made twice.
func (rt *runtime) aggGroupPartitioned(env *aggEnv, fd *feed, f fanout) ([]setTable, error) {
	workers := f.workers
	n := env.n
	in := fd.rows
	nSets, nKeys := len(n.Sets), len(n.GroupExprs)

	// Phase 1: per-row group-expression values and set-key hashes, and
	// which rows a fused Filter keeps.
	keys := &keySink{env: env, keyVals: make([]sqltypes.Value, len(in)*nKeys), setHash: make([]uint32, len(in)*nSets)}
	if fd.fused() {
		keys.kept = make([]bool, len(in))
	}
	fd.passes = fd.tallies(numChunks(len(in), f.grain))
	err := rt.forEachChunk(len(in), f, func(w *runtime, _, chunk, lo, hi int) error {
		ks := *keys
		ks.key, ks.in = nil, tally{}
		if fd.fused() {
			return fd.pass(w, chunk, lo, hi, &ks)
		}
		return emitRows(w, in, lo, hi, &ks)
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: worker w owns the groups whose key hash ≡ w (mod
	// workers). Every worker scans all rows in ascending order but only
	// evaluates aggregate arguments for rows of its own groups, so each
	// group sees its input in global order on a single goroutine.
	workerTables := make([][]setTable, workers)
	err = rt.runWorkers(workers, func(w *runtime, worker int) error {
		tables := env.newTables(0)
		workerTables[worker] = tables
		var key []byte
		for i, row := range in {
			if err := w.tick(); err != nil {
				return err
			}
			if keys.kept != nil && !keys.kept[i] {
				continue
			}
			kv := keys.keyVals[i*nKeys : (i+1)*nKeys]
			for si, set := range n.Sets {
				if int(keys.setHash[i*nSets+si])%workers != worker {
					continue
				}
				key = appendSetKey(key[:0], set, kv)
				acc := tables[si].group(env, key, set, kv, i)
				if env.positions > 0 {
					tables[si].addPositions(env, acc, row)
				}
				if err := w.accumulate(env, acc, row); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: union the disjoint per-worker tables.
	tables := newSetTables(nSets)
	for _, wt := range workerTables {
		for si := range wt {
			for key, acc := range wt[si].groups {
				tables[si].groups[key] = acc
			}
		}
	}
	return tables, nil
}

// keySink is phase 1 of the group-partitioned path: it records each
// row's group-expression values and set-key hashes at the row's index,
// and marks the row kept.
type keySink struct {
	env     *aggEnv
	keyVals []sqltypes.Value
	setHash []uint32
	kept    []bool // nil when every row counts
	key     []byte
	in      tally
}

func (s *keySink) emit(w *runtime, row Row, i int) error {
	s.in.add(row)
	env := s.env
	nKeys, nSets := len(env.groups), len(env.n.Sets)
	kv := s.keyVals[i*nKeys : (i+1)*nKeys]
	for j, g := range env.groups {
		v, err := g(w, row)
		if err != nil {
			return err
		}
		kv[j] = v
	}
	for si, set := range env.n.Sets {
		s.key = appendSetKey(s.key[:0], set, kv)
		s.setHash[i*nSets+si] = hash32(s.key)
	}
	if s.kept != nil {
		s.kept[i] = true
	}
	return nil
}

func (s *keySink) count() *tally { return &s.in }

// appendSetKey encodes the values of one grouping set's keys onto dst.
func appendSetKey(dst []byte, set []int, keyVals []sqltypes.Value) []byte {
	for _, j := range set {
		dst = keyVals[j].AppendKey(dst)
	}
	return dst
}

// emit renders the final rows: group key columns, then aggregates. Set
// order, then first-seen (first input row) order within a set, for
// deterministic output. The rows are carved from one block. pf publishes
// the positions of POSITIONS calls (nil when there are none).
func (env *aggEnv) emit(tables []setTable, inputLen int, pf *posFold) ([]Row, error) {
	n := env.n

	// A global grouping set (no keys) emits a row even with no input.
	total := 0
	for si, set := range n.Sets {
		if len(set) == 0 && len(tables[si].groups) == 0 {
			tables[si].insert(nil, tables[si].newGroup(env, nil, nil, inputLen))
		}
		total += len(tables[si].groups)
	}

	width := len(n.GroupExprs) + len(n.Aggs)
	block := make([]sqltypes.Value, total*width)
	out := make([]Row, 0, total)
	for si, set := range n.Sets {
		inSet := make(map[int]bool, len(set))
		for _, j := range set {
			inSet[j] = true
		}
		accs := make([]*groupAcc, 0, len(tables[si].groups))
		for _, acc := range tables[si].groups {
			accs = append(accs, acc)
		}
		sortAccs(accs)
		for _, acc := range accs {
			row := block[:width:width]
			block = block[width:]
			for j := range n.GroupExprs {
				if inSet[j] {
					row[j] = acc.keyVals[j]
				} else {
					row[j] = sqltypes.Null(n.GroupExprs[j].Type().Kind)
				}
			}
			for i, call := range n.Aggs {
				switch env.calls[i].kind {
				case callGrouping:
					g := int64(1)
					if inSet[call.KeyIndex] {
						g = 0
					}
					row[len(n.GroupExprs)+i] = sqltypes.NewInt(g)
				case callPositions:
					row[len(n.GroupExprs)+i] = pf.publish(&env.calls[i], acc)
				default:
					row[len(n.GroupExprs)+i] = acc.states[i].Result()
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func sortAccs(accs []*groupAcc) {
	sort.Slice(accs, func(a, b int) bool { return accs[a].order < accs[b].order })
}

// accumulate folds row into acc. COUNT(*) and a one-column call reach
// their state without evaluating anything: the column's call is handed
// the row's own cell (fn.AggState.Add: states copy what they keep).
// Every other call goes through accumulateCall.
func (rt *runtime) accumulate(env *aggEnv, acc *groupAcc, row Row) error {
	for i := range env.calls {
		c := &env.calls[i]
		if c.def == nil {
			continue
		}
		if c.filter != nil {
			t, err := c.filter(rt, row)
			if err != nil {
				return err
			}
			if t != triTrue {
				continue
			}
		}
		var err error
		switch c.kind {
		case callStar:
			err = acc.states[i].Add(nil)
		case callColumn:
			j := c.col
			if uint(j) >= uint(len(row)) {
				return colRangeError(j, len(row))
			}
			if c.skipNulls && row[j].Null {
				continue
			}
			err = acc.states[i].Add(row[j : j+1 : j+1])
		default:
			err = rt.accumulateCall(c, acc, i, row)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// accumulateCall folds row into call i of acc the general way: the
// arguments and WITHIN DISTINCT keys go on the runtime's argument stack,
// which is popped back to base on every way out.
func (rt *runtime) accumulateCall(c *aggCall, acc *groupAcc, i int, row Row) error {
	base := len(rt.args)
	skip, err := rt.pushArgs(c.args, row, c.skipNulls)
	switch {
	case err != nil || skip:
	case c.distinct || len(c.within) > 0:
		err = rt.accumulateDistinct(c, acc, i, base, row)
	default:
		err = acc.states[i].Add(rt.args[base:])
	}
	rt.args = rt.args[:base]
	return err
}

// pushArgs evaluates fns over row onto the argument stack; skip reports a
// NULL first value under skipNulls.
func (rt *runtime) pushArgs(fns []evalFn, row Row, skipNulls bool) (skip bool, err error) {
	for j, f := range fns {
		v, err := f(rt, row)
		if err != nil {
			return false, err
		}
		rt.args = append(rt.args, v)
		if j == 0 && v.Null && skipNulls {
			skip = true
		}
	}
	return skip, nil
}

// accumulateDistinct adds the arguments above base to the call's state
// unless DISTINCT or WITHIN DISTINCT has seen them.
func (rt *runtime) accumulateDistinct(c *aggCall, acc *groupAcc, i, base int, row Row) error {
	nargs := len(c.args)
	if c.distinct {
		key := sqltypes.RowKey(rt.args[base:])
		if acc.dedup[i][key] {
			return nil
		}
		acc.dedup[i][key] = true
	}
	if len(c.within) > 0 {
		if _, err := rt.pushArgs(c.within, row, false); err != nil {
			return err
		}
		key := sqltypes.RowKey(rt.args[base+nargs:])
		argKey := sqltypes.RowKey(rt.args[base : base+nargs])
		if prev, seen := acc.within[i][key]; seen {
			if prev != argKey {
				return fmt.Errorf("%s WITHIN DISTINCT: argument is not functionally dependent on the keys (two different values for one key tuple)", c.name)
			}
			return nil
		}
		acc.within[i][key] = argKey
	}
	return acc.states[i].Add(rt.args[base : base+nargs])
}
