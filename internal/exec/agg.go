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
		types := make([]sqltypes.Type, len(call.Args))
		for j, a := range call.Args {
			types[j] = a.Type()
		}
		env.argTypes[i] = types
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

// exprs returns every expression the aggregate evaluates per row, for
// parallel-safety analysis and cost detection.
func (env *aggEnv) exprs() []plan.Expr {
	var exprs []plan.Expr
	exprs = append(exprs, env.n.GroupExprs...)
	for _, call := range env.n.Aggs {
		exprs = append(exprs, call.Args...)
		if call.Filter != nil {
			exprs = append(exprs, call.Filter)
		}
		exprs = append(exprs, call.WithinDistinct...)
	}
	return exprs
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
	env, err := newAggEnv(n)
	if err != nil {
		return nil, err
	}

	// The vectorized accumulate shares the groupAcc machinery, so it
	// slots into both the serial and the chunk-merge parallel paths. The
	// group-partitioned path (order-sensitive aggregates with spare
	// workers) stays row-at-a-time: each worker skips most rows, which
	// defeats batching.
	accum := (*runtime).accumulateRows
	if rt.vecUsable(env.exprs()...) && env.vecAggOK() {
		vea := rt.pipelineAgg(env, n.Input.Schema())
		share := rt.scanShare(n.Input)
		accum = func(w *runtime, env *aggEnv, tables []setTable, in []Row, lo, hi int) error {
			return w.accumulateRowsVec(env, vea, share, tables, in, lo, hi)
		}
	}

	var tables []setTable
	if workers, grain := rt.rowParallelism(len(in), env.exprs()...); workers > 1 {
		rt.noteFanout(n, workers)
		if env.chunkMergeable() {
			tables, err = rt.aggChunkMerge(env, in, workers, grain, accum)
		} else {
			tables, err = rt.aggGroupPartitioned(env, in, workers, grain)
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
	keyVals := make([]sqltypes.Value, len(n.GroupExprs))
	var key []byte
	for i := lo; i < hi; i++ {
		if err := rt.tick(); err != nil {
			return err
		}
		row := in[i]
		// Evaluate each group expression once per row.
		for j, g := range n.GroupExprs {
			v, err := rt.eval(g, row)
			if err != nil {
				return err
			}
			keyVals[j] = v
		}
		for si, set := range n.Sets {
			key = key[:0]
			for _, j := range set {
				key = keyVals[j].AppendKey(key)
			}
			acc := tables[si].groups[string(key)]
			if acc == nil {
				acc = env.newAcc(env.maskKeyVals(set, keyVals), i)
				tables[si].groups[string(key)] = acc
			}
			if err := rt.accumulate(env, acc, row); err != nil {
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
func (rt *runtime) aggChunkMerge(env *aggEnv, in []Row, workers, grain int, accum accumulateFn) ([]setTable, error) {
	chunkTables := make([][]setTable, numChunks(len(in), grain))
	err := rt.forEachChunk(len(in), workers, grain, func(w *runtime, _, chunk, lo, hi int) error {
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
func (rt *runtime) aggGroupPartitioned(env *aggEnv, in []Row, workers, grain int) ([]setTable, error) {
	n := env.n
	nSets := len(n.Sets)

	// Phase 1: per-row group-expression values, set keys, and hashes.
	allKeyVals := make([][]sqltypes.Value, len(in))
	setKeys := make([]string, len(in)*nSets)
	setHash := make([]uint32, len(in)*nSets)
	err := rt.forEachChunk(len(in), workers, grain, func(w *runtime, _, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := w.tick(); err != nil {
				return err
			}
			keyVals := make([]sqltypes.Value, len(n.GroupExprs))
			for j, g := range n.GroupExprs {
				v, err := w.eval(g, in[i])
				if err != nil {
					return err
				}
				keyVals[j] = v
			}
			allKeyVals[i] = keyVals
			for si, set := range n.Sets {
				setKey := make([]sqltypes.Value, len(set))
				for k, j := range set {
					setKey[k] = keyVals[j]
				}
				key := sqltypes.RowKey(setKey)
				setKeys[i*nSets+si] = key
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
		for i, row := range in {
			if err := w.tick(); err != nil {
				return err
			}
			for si, set := range n.Sets {
				idx := i*nSets + si
				if int(setHash[idx])%workers != worker {
					continue
				}
				key := setKeys[idx]
				acc := tables[si].groups[key]
				if acc == nil {
					acc = env.newAcc(env.maskKeyVals(set, allKeyVals[i]), i)
					tables[si].groups[key] = acc
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

func (rt *runtime) accumulate(env *aggEnv, acc *groupAcc, row Row) error {
	// Aggregate arguments go on the runtime's argument stack (states copy
	// what they keep), popped after each call.
	base := len(rt.args)
	defer func() { rt.args = rt.args[:base] }()
	for i, call := range env.n.Aggs {
		if call.Name == "GROUPING" {
			continue
		}
		if call.Filter != nil {
			v, err := rt.eval(call.Filter, row)
			if err != nil {
				return err
			}
			if !v.IsTrue() {
				continue
			}
		}
		rt.args = rt.args[:base]
		skip := false
		for j, a := range call.Args {
			v, err := rt.eval(a, row)
			if err != nil {
				return err
			}
			rt.args = append(rt.args, v)
			if j == 0 && v.Null && env.defs[i].SkipNulls {
				skip = true
			}
		}
		if skip {
			continue
		}
		args := rt.args[base:]
		if call.Distinct {
			key := sqltypes.RowKey(args)
			if acc.dedup[i][key] {
				continue
			}
			acc.dedup[i][key] = true
		}
		if len(call.WithinDistinct) > 0 {
			keyVals := make([]sqltypes.Value, len(call.WithinDistinct))
			for j, k := range call.WithinDistinct {
				v, err := rt.eval(k, row)
				if err != nil {
					return err
				}
				keyVals[j] = v
			}
			key := sqltypes.RowKey(keyVals)
			argKey := sqltypes.RowKey(args)
			if prev, seen := acc.within[i][key]; seen {
				if prev != argKey {
					return fmt.Errorf("%s WITHIN DISTINCT: argument is not functionally dependent on the keys (two different values for one key tuple)", call.Name)
				}
				continue
			}
			acc.within[i][key] = argKey
		}
		if err := acc.states[i].Add(args); err != nil {
			return err
		}
	}
	return nil
}
