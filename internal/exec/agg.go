package exec

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Hash aggregation. An Aggregate is compiled once per plan into an
// aggEnv: its group expressions and, for every call, how a row reaches
// the call's state — decided once, not per row (see callKind) — and
// which operators beneath it it folds in its own row loop (fuse.go).
// Every fold of rows into aggregate states goes through one grouping
// table, setTable: the serial, chunk-merge and group-partitioned paths,
// PartialAggregate, MergePartials, the vectorized accumulate, the folding
// partition (partition.go) and the rollup lattice's nodes (Table). A
// table is a struct of arrays: a group is a position, in first-input-row
// order; key values and states sit in flat arrays, the states carved in
// blocks (fn.Agg.NewBlock), so a new group allocates nothing but its
// share of a block, and a row of an existing group allocates nothing. A
// POSITIONS call keeps no state: each group lists the positions its rows
// carry (posList) and emit publishes them (link.go).

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

// aggEnv returns n's compiled form from the execution's program cache.
func (rt *runtime) aggEnv(n *plan.Aggregate) (*aggEnv, error) { return rt.progs().aggEnv(n) }

// aggEnv returns n's compiled form from c, compiling it on first use.
func (c *progCache) aggEnv(n *plan.Aggregate) (*aggEnv, error) {
	p := c.get(&c.row, n, func() any {
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

// setTable is one grouping set's table of groups, a struct of arrays.
// Group g is a position, and groups are made in first-input-row order:
// its first input row is groups[g], its key tuple keys[g*nk:] — every key
// column, NULL outside set — and its states states[g*na:], nil for a call
// that keeps none; states runs on into the free tail of its block. The
// index files a group under the hash of its set key (hashKey): slots
// holds 1 + the newest group of each bucket and next[g] 1 + the group
// filed before g in its bucket (0 ends a chain). A probe compares key
// values under AppendKey equality (sqltypes.KeyEqual), never encodings.
// The side arrays exist only when a call needs them: per group and call,
// dedup (DISTINCT) and within (WITHIN DISTINCT: each key tuple and the
// argument values first seen for it); the position lists for POSITIONS.
type setTable struct {
	env    *aggEnv
	set    []int
	nk     int
	groups []int
	keys   []sqltypes.Value
	states []fn.AggState
	next   []int32
	slots  []int32
	dedup  []map[string]bool
	within []map[string]string
	// pos holds the position entries of the rows the table folded, and
	// head[g] is 1 + group g's newest (0: none). A table that merged others
	// (absorb, adopt) lists their entries too, in place: parts holds their
	// lists, and more[g] is 1 + the newest of g's links into them.
	pos   *posList
	head  []int32
	more  []int32
	parts []*posList
	links []posLink
}

// posLink is a group's list in another table's entries: parts[part]
// from head, and 1 + the group's link before it (0: none).
type posLink struct{ part, head, next int32 }

// posList is one table's POSITIONS entries, one per row folded into one
// of its groups: vals holds the position each call's column carries (-1
// for NULL), env.positions of them per entry, and prev 1 + the entry
// before it in its group (0 ends the group's list). A row costs two
// appends and no hashing. The pad fills a cache line: the chunks of a
// parallel fold append to their lists at once, and two lists' headers
// in one line cost BenchmarkJoinedMeasure (10 000 orders, 2 CPUs) 15 %.
type posList struct {
	vals, prev []int32
	_          [16]byte
}

const maxGroupBlock = 1024

// accumulateFn folds in[lo:hi] into tables on the given runtime; it is
// either the row-at-a-time accumulateRows or the vectorized variant.
type accumulateFn func(w *runtime, env *aggEnv, tables []setTable, in []Row, lo, hi int) error

var keySeed = maphash.MakeSeed()

// hashKey is the hash a table files a group under: of the values of
// kv's set columns, alike for keys sqltypes.KeyEqual finds equal.
func hashKey(set []int, kv []sqltypes.Value) uint32 {
	var h uint64
	for _, j := range set {
		h = h*0x9e3779b97f4a7c15 + kv[j].KeyHash(keySeed)
	}
	return uint32(h ^ h>>32)
}

// newTables makes the tables one fold fills: one per grouping set, whose
// position lists, with POSITIONS calls, have room for rows rows.
func (env *aggEnv) newTables(rows int) []setTable {
	tables := make([]setTable, len(env.n.Sets))
	for i, set := range env.n.Sets {
		tables[i] = setTable{env: env, set: set, nk: len(env.n.GroupExprs)}
		if env.positions > 0 {
			tables[i].pos = &posList{vals: make([]int32, 0, rows*env.positions), prev: make([]int32, 0, rows)}
		}
	}
	return tables
}

// key returns group g's key tuple.
func (t *setTable) key(g int) []sqltypes.Value {
	return t.keys[g*t.nk : (g+1)*t.nk : (g+1)*t.nk]
}

// statesOf returns group g's states.
func (t *setTable) statesOf(g int) []fn.AggState {
	na := len(t.env.calls)
	return t.states[g*na : (g+1)*na : (g+1)*na]
}

// find returns the group whose key agrees with kv on set, its encoding
// hashing to h, or -1.
func (t *setTable) find(h uint32, kv []sqltypes.Value) int {
	if len(t.slots) == 0 {
		return -1
	}
chain:
	for p := t.slots[h&uint32(len(t.slots)-1)]; p != 0; p = t.next[p-1] {
		key := t.keys[int(p-1)*t.nk:]
		for _, j := range t.set {
			if !sqltypes.KeyEqual(key[j], kv[j]) {
				continue chain
			}
		}
		return int(p - 1)
	}
	return -1
}

// group returns the group of kv's set key, which hashes to h, making it
// with first input row order when there is none.
func (t *setTable) group(h uint32, kv []sqltypes.Value, order int) int {
	if g := t.find(h, kv); g >= 0 {
		return g
	}
	return t.add(h, kv, order)
}

// add appends a group of kv's set key, which hashes to h, with fresh
// states and first input row order, and returns its position.
func (t *setTable) add(h uint32, kv []sqltypes.Value, order int) int {
	env := t.env
	g := len(t.groups)
	if len(t.states) == g*len(env.calls) {
		t.carve()
	}
	t.appendGroup(h, kv, order)
	if env.distinct {
		for _, call := range env.n.Aggs {
			var dedup map[string]bool
			var within map[string]string
			if call.Distinct {
				dedup = map[string]bool{}
			}
			if len(call.WithinDistinct) > 0 {
				within = map[string]string{}
			}
			t.dedup, t.within = append(t.dedup, dedup), append(t.within, within)
		}
	}
	return g
}

// carve makes the states of a block of groups past the last: as many as
// the table has, up to maxGroupBlock — so a one-group table makes
// one-group blocks — with one allocation per call (fn.Agg.NewBlock).
func (t *setTable) carve() {
	na := len(t.env.calls)
	b := min(max(len(t.groups), 1), maxGroupBlock)
	n := len(t.states)
	t.states = slices.Grow(t.states, b*na)[:n+b*na]
	for i := range t.env.calls {
		if c := &t.env.calls[i]; c.def != nil {
			c.def.NewBlock(c.argTypes, t.states[n+i:], na)
		}
	}
}

// reserve gives an empty table room for n groups, so that adding them
// grows no array and files no group again. A table of one group gets no
// index: its group merges with nothing, so nothing looks it up
// (appendKey adds it).
func (t *setTable) reserve(n int) {
	t.groups = make([]int, 0, n)
	t.keys = make([]sqltypes.Value, 0, n*t.nk)
	t.states = make([]fn.AggState, 0, n*len(t.env.calls))
	if n > 1 {
		t.next = make([]int32, 0, n)
		t.slots = make([]int32, max(8, 1<<bits.Len(uint(n-1))))
	}
}

// appendKey appends a group's first row and its key — kv's set columns —
// but not its states, side sets or place in the index.
func (t *setTable) appendKey(kv []sqltypes.Value, order int) {
	t.groups = append(t.groups, order)
	base := len(t.keys)
	for range t.nk {
		t.keys = append(t.keys, sqltypes.Null(sqltypes.KindUnknown))
	}
	for _, j := range t.set {
		t.keys[base+j] = kv[j]
	}
	if t.env.positions > 0 {
		t.head, t.more = append(t.head, 0), append(t.more, 0)
	}
}

// appendGroup appends everything of a group but its states and side
// sets: appendKey's, and its place in the index under h.
func (t *setTable) appendGroup(h uint32, kv []sqltypes.Value, order int) {
	g := len(t.groups)
	t.appendKey(kv, order)
	t.next = append(t.next, 0)
	if g < len(t.slots) {
		t.link(g, h)
		return
	}
	// The groups outnumber the buckets: double them and file every group
	// again.
	t.slots = make([]int32, max(8, 2*len(t.slots)))
	for i := range t.next {
		t.link(i, hashKey(t.set, t.key(i)))
	}
}

func (t *setTable) link(g int, h uint32) {
	s := h & uint32(len(t.slots)-1)
	t.next[g], t.slots[s] = t.slots[s], int32(g+1)
}

// adopt appends group g of src, states and all, to t, which has no group
// of its key; part is where src's entries are among t's parts
// (addPart). A table adopted or absorbed from has no parts of its own.
func (t *setTable) adopt(src *setTable, g int, part int32) {
	na := len(t.env.calls)
	n := len(t.groups)
	t.states = append(t.states[:n*na], src.statesOf(g)...)
	t.appendGroup(hashKey(src.set, src.key(g)), src.key(g), src.groups[g])
	if t.env.distinct {
		t.dedup = append(t.dedup, src.dedup[g*na:(g+1)*na]...)
		t.within = append(t.within, src.within[g*na:(g+1)*na]...)
	}
	if src.head != nil {
		t.linkPart(n, part, src.head[g])
	}
}

// absorb merges src, a table of later input rows, into t: a group both
// have merges src's states into t's and links its position list there;
// any other is adopted, after t's groups, so positions stay in
// first-input-row order.
func (t *setTable) absorb(src *setTable) error {
	part := t.addPart(src)
	for g2 := range src.groups {
		g := t.find(hashKey(src.set, src.key(g2)), src.key(g2))
		if g < 0 {
			t.adopt(src, g2, part)
			continue
		}
		if err := mergeStates(t.statesOf(g), src.statesOf(g2)); err != nil {
			return err
		}
		if src.head != nil {
			t.linkPart(g, part, src.head[g2])
		}
	}
	return nil
}

// mergeStates merges the states of src into those of dst, call by call;
// a call that keeps no state (nil) is skipped.
func mergeStates(dst, src []fn.AggState) error {
	for i, st := range src {
		if dst[i] == nil {
			continue
		}
		if err := dst[i].Merge(st); err != nil {
			return err
		}
	}
	return nil
}

// ordered returns one table of the groups of srcs, tables of one set
// whose keys are disjoint, in first-input-row order (groups).
func ordered(srcs []setTable) setTable {
	type ref struct{ src, g int }
	var refs []ref
	for s := range srcs {
		for g := range srcs[s].groups {
			refs = append(refs, ref{s, g})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		return srcs[refs[a].src].groups[refs[a].g] < srcs[refs[b].src].groups[refs[b].g]
	})
	t := setTable{env: srcs[0].env, set: srcs[0].set, nk: srcs[0].nk}
	parts := make([]int32, len(srcs))
	for s := range srcs {
		parts[s] = t.addPart(&srcs[s])
	}
	for _, r := range refs {
		t.adopt(&srcs[r.src], r.g, parts[r.src])
	}
	return t
}

// addPart files src's position entries among t's parts and returns
// where.
func (t *setTable) addPart(src *setTable) int32 {
	t.parts = append(t.parts, src.pos)
	return int32(len(t.parts) - 1)
}

// linkPart adds to group g's positions the list from head in part.
func (t *setTable) linkPart(g int, part, head int32) {
	if head != 0 {
		t.links = append(t.links, posLink{part: part, head: head, next: t.more[g]})
		t.more[g] = int32(len(t.links))
	}
}

// addPositions appends the positions row carries to group g's list.
func (t *setTable) addPositions(g int, row Row) {
	p := t.pos
	for i := range t.env.calls {
		if c := &t.env.calls[i]; c.kind == callPositions {
			v, x := row[c.col], int32(-1)
			if !v.Null {
				x = int32(v.I)
			}
			p.vals = append(p.vals, x)
		}
	}
	p.prev = append(p.prev, t.head[g])
	t.head[g] = int32(len(p.prev))
}

// newStates returns fresh states of env's calls: a group no row reaches.
func (env *aggEnv) newStates() []fn.AggState {
	states := make([]fn.AggState, len(env.calls))
	for i := range env.calls {
		if c := &env.calls[i]; c.def != nil {
			states[i] = c.def.New(c.argTypes)
		}
	}
	return states
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

	// The vectorized accumulate shares the grouping table, so it
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
// loop (accumulateRows) or by a fused chain's (fuse.go). The key tuple
// and the row a fused join builds each joined row in are its own
// scratch, so a row of an existing group allocates nothing.
type aggFold struct {
	env     *aggEnv
	tables  []setTable
	keyVals []sqltypes.Value
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
		g := t.group(hashKey(set, f.keyVals), f.keyVals, order)
		if env.positions > 0 {
			t.addPositions(g, row)
		}
		if err := w.accumulate(env, t, g, row); err != nil {
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
// tables, then the later chunks' tables are absorbed into the first's in
// chunk order. Restricted to exact-merge aggregates, so the result is
// bit-identical to one serial pass.
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
	tables := chunkTables[0]
	for _, ct := range chunkTables[1:] {
		for si := range ct {
			if err := tables[si].absorb(&ct[si]); err != nil {
				return nil, err
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
// The group-expression values of every row and its set keys' hashes live
// in flat arrays, so neither phase allocates per row, and a worker finds
// a group by the hash phase 1 made. A fused join never comes here: its
// rows would have to be made twice.
func (rt *runtime) aggGroupPartitioned(env *aggEnv, fd *feed, f fanout) ([]setTable, error) {
	workers := f.workers
	n := env.n
	in := fd.rows
	nSets, nKeys := len(n.Sets), len(n.GroupExprs)

	// Phase 1: per-row group-expression values and set-key hashes (the
	// hashes the tables file groups under), and
	// which rows a fused Filter keeps.
	keys := &keySink{env: env, keyVals: make([]sqltypes.Value, len(in)*nKeys), setHash: make([]uint32, len(in)*nSets)}
	if fd.fused() {
		keys.kept = make([]bool, len(in))
	}
	fd.passes = fd.tallies(numChunks(len(in), f.grain))
	err := rt.forEachChunk(len(in), f, func(w *runtime, _, chunk, lo, hi int) error {
		ks := *keys
		ks.in = tally{}
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
		for i, row := range in {
			if err := w.tick(); err != nil {
				return err
			}
			if keys.kept != nil && !keys.kept[i] {
				continue
			}
			kv := keys.keyVals[i*nKeys : (i+1)*nKeys]
			for si := range n.Sets {
				if int(keys.setHash[i*nSets+si])%workers != worker {
					continue
				}
				t := &tables[si]
				g := t.group(keys.setHash[i*nSets+si], kv, i)
				if env.positions > 0 {
					t.addPositions(g, row)
				}
				if err := w.accumulate(env, t, g, row); err != nil {
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
	tables := make([]setTable, nSets)
	for si := range tables {
		srcs := make([]setTable, workers)
		for w := range srcs {
			srcs[w] = workerTables[w][si]
		}
		tables[si] = ordered(srcs)
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
		s.setHash[i*nSets+si] = hashKey(set, kv)
	}
	if s.kept != nil {
		s.kept[i] = true
	}
	return nil
}

func (s *keySink) count() *tally { return &s.in }

// emit renders the final rows: group key columns, then aggregates. Set
// order, then position (first input row) order within a set, for
// deterministic output. The rows are carved from one block. pf publishes
// the positions of POSITIONS calls (nil when there are none).
func (env *aggEnv) emit(tables []setTable, inputLen int, pf *posFold) ([]Row, error) {
	n := env.n

	// A global grouping set (no keys) emits a row even with no input.
	total := 0
	for si := range tables {
		t := &tables[si]
		if len(t.set) == 0 && len(t.groups) == 0 {
			t.add(0, nil, inputLen)
		}
		total += len(t.groups)
	}

	width := len(n.GroupExprs) + len(n.Aggs)
	block := make([]sqltypes.Value, total*width)
	out := make([]Row, 0, total)
	for si, set := range n.Sets {
		inSet := make(map[int]bool, len(set))
		for _, j := range set {
			inSet[j] = true
		}
		t := &tables[si]
		for g := range t.groups {
			row := block[:width:width]
			block = block[width:]
			key, states := t.key(g), t.statesOf(g)
			for j := range n.GroupExprs {
				if inSet[j] {
					row[j] = key[j]
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
					row[len(n.GroupExprs)+i] = pf.publish(&env.calls[i], t, g)
				default:
					row[len(n.GroupExprs)+i] = states[i].Result()
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// accumulate folds row into group g of t. COUNT(*) and a one-column call
// reach their state without evaluating anything: the column's call is
// handed the row's own cell (fn.AggState.Add: states copy what they
// keep). Every other call goes through accumulateCall.
func (rt *runtime) accumulate(env *aggEnv, t *setTable, g int, row Row) error {
	states := t.statesOf(g)
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
			err = states[i].Add(nil)
		case callColumn:
			j := c.col
			if uint(j) >= uint(len(row)) {
				return colRangeError(j, len(row))
			}
			if c.skipNulls && row[j].Null {
				continue
			}
			err = states[i].Add(row[j : j+1 : j+1])
		default:
			err = rt.accumulateCall(c, t, g*len(env.calls)+i, row)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// accumulateCall folds row into state s of t, call c's in a group, the
// general way: the arguments and WITHIN DISTINCT keys go on the runtime's
// argument stack, which is popped back to base on every way out.
func (rt *runtime) accumulateCall(c *aggCall, t *setTable, s int, row Row) error {
	base := len(rt.args)
	skip, err := rt.pushArgs(c.args, row, c.skipNulls)
	switch {
	case err != nil || skip:
	case c.distinct || len(c.within) > 0:
		err = rt.accumulateDistinct(c, t, s, base, row)
	default:
		err = t.states[s].Add(rt.args[base:])
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

// accumulateDistinct adds the arguments above base to state s of t
// unless DISTINCT or WITHIN DISTINCT has seen them.
func (rt *runtime) accumulateDistinct(c *aggCall, t *setTable, s, base int, row Row) error {
	nargs := len(c.args)
	if c.distinct {
		key := sqltypes.RowKey(rt.args[base:])
		if t.dedup[s][key] {
			return nil
		}
		t.dedup[s][key] = true
	}
	if len(c.within) > 0 {
		if _, err := rt.pushArgs(c.within, row, false); err != nil {
			return err
		}
		key := sqltypes.RowKey(rt.args[base+nargs:])
		argKey := sqltypes.RowKey(rt.args[base : base+nargs])
		if prev, seen := t.within[s][key]; seen {
			if prev != argKey {
				return fmt.Errorf("%s WITHIN DISTINCT: argument is not functionally dependent on the keys (two different values for one key tuple)", c.name)
			}
			return nil
		}
		t.within[s][key] = argKey
	}
	return t.states[s].Add(rt.args[base : base+nargs])
}
