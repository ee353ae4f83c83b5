package exec

import (
	"fmt"
	"sort"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// groupAcc accumulates one group for one grouping set.
type groupAcc struct {
	keyVals []sqltypes.Value // values of this set's keys, indexed by key position
	states  []fn.AggState
	dedup   []map[string]bool // per aggregate, for DISTINCT
	// within tracks WITHIN DISTINCT key tuples and the argument values
	// first seen for each, to enforce functional dependence.
	within []map[string]string
	order  int // index of the group's first input row (stable output order)
}

// aggEnv holds per-query aggregate metadata shared by the serial and
// parallel aggregation paths.
type aggEnv struct {
	n        *plan.Aggregate
	defs     []*fn.Agg
	argTypes [][]sqltypes.Type
}

func newAggEnv(n *plan.Aggregate) (*aggEnv, error) {
	env := &aggEnv{
		n:        n,
		defs:     make([]*fn.Agg, len(n.Aggs)),
		argTypes: make([][]sqltypes.Type, len(n.Aggs)),
	}
	for i, call := range n.Aggs {
		if call.Name == "GROUPING" {
			continue
		}
		def, ok := fn.LookupAgg(call.Name)
		if !ok {
			return nil, fmt.Errorf("unknown aggregate %s at runtime", call.Name)
		}
		env.defs[i] = def
		env.argTypes[i] = call.ArgTypes()
	}
	return env, nil
}

func (env *aggEnv) newAcc(keyVals []sqltypes.Value, order int) *groupAcc {
	n := env.n
	acc := &groupAcc{
		keyVals: keyVals,
		states:  make([]fn.AggState, len(n.Aggs)),
		dedup:   make([]map[string]bool, len(n.Aggs)),
		within:  make([]map[string]string, len(n.Aggs)),
		order:   order,
	}
	for i, call := range n.Aggs {
		if call.Name == "GROUPING" {
			continue
		}
		acc.states[i] = env.defs[i].New(env.argTypes[i])
		if call.Distinct {
			acc.dedup[i] = map[string]bool{}
		}
		if len(call.WithinDistinct) > 0 {
			acc.within[i] = map[string]string{}
		}
	}
	return acc
}

// nullKeyVals returns a full-width key tuple with this set's columns
// filled in and the rest NULL.
func (env *aggEnv) maskKeyVals(set []int, keyVals []sqltypes.Value) []sqltypes.Value {
	kv := make([]sqltypes.Value, len(env.n.GroupExprs))
	for j := range kv {
		kv[j] = sqltypes.Null(sqltypes.KindUnknown)
	}
	for _, j := range set {
		kv[j] = keyVals[j]
	}
	return kv
}

// chunkMergeable reports whether two-phase (partial-state merge)
// parallel aggregation is exact for this query: every aggregate's
// partial states must merge exactly (no floating-point accumulation),
// and DISTINCT / WITHIN DISTINCT need the group's full row stream in
// one place, so they disqualify the chunk-merge path.
func (env *aggEnv) chunkMergeable() bool {
	for i, call := range env.n.Aggs {
		if call.Name == "GROUPING" {
			continue
		}
		if call.Distinct || len(call.WithinDistinct) > 0 {
			return false
		}
		def := env.defs[i]
		if def.ExactMerge == nil || !def.ExactMerge(env.argTypes[i]) {
			return false
		}
	}
	return true
}

type setTable struct {
	groups map[string]*groupAcc
}

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

// runAggregate evaluates grouping-set hash aggregation. The input is
// scanned once; every grouping set maintains its own hash table, so
// ROLLUP/CUBE cost one pass regardless of the number of sets. With
// spare workers the scan runs in parallel: either by chunk-merging
// partial states (exact-merge aggregates) or by partitioning groups
// across workers (order-sensitive aggregates); both orders groups by
// first input row, reproducing the serial output exactly.
func (rt *runtime) runAggregate(n *plan.Aggregate) ([]Row, error) {
	in, err := rt.run(n.Input)
	if err != nil {
		return nil, err
	}
	if n.Spool != nil {
		rt.publishSpool(n.Spool, in)
	}
	env, err := newAggEnv(n)
	if err != nil {
		return nil, err
	}

	// The vectorized accumulate shares the groupAcc machinery, so it
	// slots into both the serial and the chunk-merge parallel paths. The
	// group-partitioned path (order-sensitive aggregates with spare
	// workers) stays row-at-a-time: each worker skips most rows, which
	// defeats batching.
	traits := rt.nodeTraits(n)
	accum := (*runtime).accumulateRows
	if rt.vecUsable(traits) && env.vecAggOK() {
		vea := rt.vecAgg(env, n.Input.Schema())
		share := rt.scanShare(n.Input)
		accum = func(w *runtime, env *aggEnv, tables []setTable, in []Row, lo, hi int) error {
			return w.accumulateRowsVec(env, vea, share, tables, in, lo, hi)
		}
	}

	var tables []setTable
	if f := rt.rowParallelism(len(in), traits); f.workers > 1 {
		rt.noteFanout(n, f.workers)
		if env.chunkMergeable() {
			tables, err = rt.aggChunkMerge(env, in, f, accum)
		} else {
			tables, err = rt.aggGroupPartitioned(env, in, f)
		}
	} else {
		tables = newSetTables(len(n.Sets))
		err = accum(rt, env, tables, in, 0, len(in))
	}
	if err != nil {
		return nil, err
	}

	return env.emit(tables, len(in))
}

// accumulateRows folds rows[lo:hi] into tables, creating groups keyed
// by each grouping set. Group order is the first input-row index. The
// key tuple and its encoding are per-call buffers: a row that lands in
// an existing group allocates nothing here (the map is probed with
// m[string(buf)], which does not copy; only a new group keeps a key).
func (rt *runtime) accumulateRows(env *aggEnv, tables []setTable, in []Row, lo, hi int) error {
	n := env.n
	prog := rt.aggProg(n)
	keyVals := make([]sqltypes.Value, len(n.GroupExprs))
	var key []byte
	for i := lo; i < hi; i++ {
		if err := rt.tick(); err != nil {
			return err
		}
		row := in[i]
		// Evaluate each group expression once per row.
		for j, g := range prog.groups {
			v, err := g(rt, row)
			if err != nil {
				return err
			}
			keyVals[j] = v
		}
		for si, set := range n.Sets {
			key = appendSetKey(key[:0], set, keyVals)
			acc := tables[si].groups[string(key)]
			if acc == nil {
				acc = env.newAcc(env.maskKeyVals(set, keyVals), i)
				tables[si].groups[string(key)] = acc
			}
			if err := rt.accumulate(env, prog, acc, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// aggChunkMerge is the two-phase parallel path: each chunk accumulates
// private partial tables over its contiguous row range, then partials
// are merged left-to-right in chunk order. Restricted to exact-merge
// aggregates, so the result is bit-identical to one serial pass.
func (rt *runtime) aggChunkMerge(env *aggEnv, in []Row, f fanout, accum accumulateFn) ([]setTable, error) {
	chunkTables := make([][]setTable, numChunks(len(in), f.grain))
	err := rt.forEachChunk(len(in), f, func(w *runtime, _, chunk, lo, hi int) error {
		t := newSetTables(len(env.n.Sets))
		if err := accum(w, env, t, in, lo, hi); err != nil {
			return err
		}
		chunkTables[chunk] = t
		return nil
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
			}
		}
	}
	return tables, nil
}

// aggGroupPartitioned is the fallback parallel path for order-sensitive
// aggregates (floating-point SUM/AVG/VAR, DISTINCT, WITHIN DISTINCT):
// group keys are precomputed over morsels, then groups are partitioned
// across workers by key hash, and each worker folds its groups' rows in
// ascending input order — exactly the serial accumulation per group.
// The group-expression values of every row live in one flat array and a
// set key is encoded into scratch where it is needed, so neither phase
// allocates per row.
func (rt *runtime) aggGroupPartitioned(env *aggEnv, in []Row, f fanout) ([]setTable, error) {
	workers := f.workers
	n := env.n
	prog := rt.aggProg(n)
	nSets, nKeys := len(n.Sets), len(n.GroupExprs)

	// Phase 1: per-row group-expression values and set-key hashes.
	keyVals := make([]sqltypes.Value, len(in)*nKeys)
	setHash := make([]uint32, len(in)*nSets)
	err := rt.forEachChunk(len(in), f, func(w *runtime, _, _, lo, hi int) error {
		var key []byte
		for i := lo; i < hi; i++ {
			if err := w.tick(); err != nil {
				return err
			}
			kv := keyVals[i*nKeys : (i+1)*nKeys]
			for j, g := range prog.groups {
				v, err := g(w, in[i])
				if err != nil {
					return err
				}
				kv[j] = v
			}
			for si, set := range n.Sets {
				key = appendSetKey(key[:0], set, kv)
				setHash[i*nSets+si] = hash32(key)
			}
		}
		return nil
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
		tables := newSetTables(nSets)
		workerTables[worker] = tables
		var key []byte
		for i, row := range in {
			if err := w.tick(); err != nil {
				return err
			}
			kv := keyVals[i*nKeys : (i+1)*nKeys]
			for si, set := range n.Sets {
				if int(setHash[i*nSets+si])%workers != worker {
					continue
				}
				key = appendSetKey(key[:0], set, kv)
				acc := tables[si].groups[string(key)]
				if acc == nil {
					acc = env.newAcc(env.maskKeyVals(set, kv), i)
					tables[si].groups[string(key)] = acc
				}
				if err := w.accumulate(env, prog, acc, row); err != nil {
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

// appendSetKey encodes the values of one grouping set's keys onto dst.
func appendSetKey(dst []byte, set []int, keyVals []sqltypes.Value) []byte {
	for _, j := range set {
		dst = keyVals[j].AppendKey(dst)
	}
	return dst
}

// emit renders the final rows: group key columns, then aggregates. Set
// order, then first-seen (first input row) order within a set, for
// deterministic output.
func (env *aggEnv) emit(tables []setTable, inputLen int) ([]Row, error) {
	n := env.n

	// A global grouping set (no keys) emits a row even with no input.
	for si, set := range n.Sets {
		if len(set) == 0 && len(tables[si].groups) == 0 {
			kv := make([]sqltypes.Value, len(n.GroupExprs))
			for j := range kv {
				kv[j] = sqltypes.Null(sqltypes.KindUnknown)
			}
			tables[si].groups[""] = env.newAcc(kv, inputLen)
		}
	}

	var out []Row
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
			row := make(Row, 0, len(n.GroupExprs)+len(n.Aggs))
			for j := range n.GroupExprs {
				if inSet[j] {
					row = append(row, acc.keyVals[j])
				} else {
					row = append(row, sqltypes.Null(n.GroupExprs[j].Type().Kind))
				}
			}
			for i, call := range n.Aggs {
				if call.Name == "GROUPING" {
					g := int64(1)
					if inSet[call.KeyIndex] {
						g = 0
					}
					row = append(row, sqltypes.NewInt(g))
					continue
				}
				row = append(row, acc.states[i].Result())
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func sortAccs(accs []*groupAcc) {
	sort.Slice(accs, func(a, b int) bool { return accs[a].order < accs[b].order })
}

// accumulate folds row into acc. Aggregate arguments and WITHIN DISTINCT
// keys go on the runtime's argument stack (states copy what they keep),
// which is popped back to base on every way out.
func (rt *runtime) accumulate(env *aggEnv, prog *aggProg, acc *groupAcc, row Row) error {
	base := len(rt.args)
	for i := range env.n.Aggs {
		call := &env.n.Aggs[i]
		if call.Name == "GROUPING" {
			continue
		}
		cp := &prog.calls[i]
		if cp.filter != nil {
			t, err := cp.filter(rt, row)
			if err != nil {
				return err
			}
			if t != triTrue {
				continue
			}
		}
		skip, err := rt.pushArgs(cp.args, row, env.defs[i].SkipNulls)
		switch {
		case err != nil || skip:
		case call.Distinct || len(cp.within) > 0:
			err = rt.accumulateDistinct(call, cp, acc, i, base, row)
		default:
			err = acc.states[i].Add(rt.args[base:])
		}
		rt.args = rt.args[:base]
		if err != nil {
			return err
		}
	}
	return nil
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
func (rt *runtime) accumulateDistinct(call *plan.AggCall, cp *aggCallProg, acc *groupAcc, i, base int, row Row) error {
	nargs := len(cp.args)
	if call.Distinct {
		key := sqltypes.RowKey(rt.args[base:])
		if acc.dedup[i][key] {
			return nil
		}
		acc.dedup[i][key] = true
	}
	if len(cp.within) > 0 {
		if _, err := rt.pushArgs(cp.within, row, false); err != nil {
			return err
		}
		key := sqltypes.RowKey(rt.args[base+nargs:])
		argKey := sqltypes.RowKey(rt.args[base : base+nargs])
		if prev, seen := acc.within[i][key]; seen {
			if prev != argKey {
				return fmt.Errorf("%s WITHIN DISTINCT: argument is not functionally dependent on the keys (two different values for one key tuple)", call.Name)
			}
			return nil
		}
		acc.within[i][key] = argKey
	}
	return acc.states[i].Add(rt.args[base : base+nargs])
}
