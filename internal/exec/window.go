package exec

import (
	"fmt"
	"sort"

	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// runWindow computes window functions: each function partitions the
// input, optionally sorts each partition, and computes one value per row
// (whole-partition for aggregates without ORDER BY, running peer-group
// frames with ORDER BY). Output rows preserve input order with the
// function results appended.
func (rt *runtime) runWindow(n *plan.Window) ([]Row, error) {
	in, err := rt.run(n.Input)
	if err != nil {
		return nil, err
	}
	progs := rt.windowProgs(n)
	results := make([][]sqltypes.Value, len(n.Funcs))
	for fi, wf := range n.Funcs {
		vals, err := rt.windowFunc(n, wf, &progs[fi], in)
		if err != nil {
			return nil, err
		}
		results[fi] = vals
	}
	out := make([]Row, len(in))
	for i, row := range in {
		wide := make(Row, 0, len(row)+len(n.Funcs))
		wide = append(wide, row...)
		for fi := range n.Funcs {
			wide = append(wide, results[fi][i])
		}
		out[i] = wide
	}
	return out, nil
}

func (rt *runtime) windowFunc(n *plan.Window, wf plan.WindowFunc, prog *windowFuncProg, in []Row) ([]sqltypes.Value, error) {
	// Partition: compute per-row partition keys (over morsels when the
	// input is large and the keys are safe), then bucket serially so
	// partOrder stays first-seen order.
	rowKeys := make([]string, len(in))
	evalKeys := func(w *runtime, lo, hi int) error {
		keyVals := make([]sqltypes.Value, len(wf.PartitionBy))
		for i := lo; i < hi; i++ {
			if err := w.tick(); err != nil {
				return err
			}
			for j, e := range prog.partitionBy {
				v, err := e(w, in[i])
				if err != nil {
					return err
				}
				keyVals[j] = v
			}
			rowKeys[i] = sqltypes.RowKey(keyVals)
		}
		return nil
	}
	if f := rt.rowParallelism(len(in), prog.partitionTraits); f.workers > 1 {
		rt.noteFanout(n, f.workers)
		err := rt.forEachChunk(len(in), f, func(wr *runtime, _, _, lo, hi int) error {
			return evalKeys(wr, lo, hi)
		})
		if err != nil {
			return nil, err
		}
	} else if err := evalKeys(rt, 0, len(in)); err != nil {
		return nil, err
	}
	partitions := map[string][]int{}
	var partOrder []string
	for i := range in {
		key := rowKeys[i]
		if _, ok := partitions[key]; !ok {
			partOrder = append(partOrder, key)
		}
		partitions[key] = append(partitions[key], i)
	}

	// Partitions are independent: each one sorts its own rows and writes
	// results at its own disjoint set of out indices, so with spare
	// workers whole partitions are computed in parallel.
	out := make([]sqltypes.Value, len(in))
	if w := rt.taskParallelism(len(partOrder), len(in), prog.frameTraits); w > 1 {
		rt.noteFanout(n, w)
		err := rt.forEachTask(len(partOrder), w, func(wr *runtime, pi int) error {
			return wr.windowOnePartition(wf, prog, in, partitions[partOrder[pi]], out)
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	for _, key := range partOrder {
		if err := rt.windowOnePartition(wf, prog, in, partitions[key], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// windowOnePartition sorts one partition's rows (when the function has
// ORDER BY) and computes its per-row results into out.
func (rt *runtime) windowOnePartition(wf plan.WindowFunc, prog *windowFuncProg, in []Row, idxs []int, out []sqltypes.Value) error {
	if len(wf.OrderBy) == 0 {
		return rt.windowPartition(wf, prog, in, idxs, nil, out)
	}
	sortKeys := make([][]sqltypes.Value, len(idxs))
	for k, i := range idxs {
		if err := rt.tick(); err != nil {
			return err
		}
		sk := make([]sqltypes.Value, len(wf.OrderBy))
		for j, f := range prog.orderBy {
			v, err := f(rt, in[i])
			if err != nil {
				return err
			}
			sk[j] = v
		}
		sortKeys[k] = sk
	}
	perm := make([]int, len(idxs))
	for k := range perm {
		perm[k] = k
	}
	var sortErr error
	sort.SliceStable(perm, func(a, b int) bool {
		for j, item := range wf.OrderBy {
			c, err := compareForSort(sortKeys[perm[a]][j], sortKeys[perm[b]][j], item)
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
		return sortErr
	}
	sorted := make([]int, len(idxs))
	keys := make([][]sqltypes.Value, len(idxs))
	for k, p := range perm {
		sorted[k] = idxs[p]
		keys[k] = sortKeys[p]
	}
	return rt.windowPartition(wf, prog, in, sorted, keys, out)
}

// windowPartition computes wf over one partition (already sorted when
// sortKeys is non-nil) and writes per-row results into out.
func (rt *runtime) windowPartition(wf plan.WindowFunc, prog *windowFuncProg, in []Row, idxs []int, sortKeys [][]sqltypes.Value, out []sqltypes.Value) error {
	args := prog.args
	peerEnd := func(start int) int {
		if sortKeys == nil {
			return len(idxs)
		}
		end := start + 1
		for end < len(idxs) && sameKeys(sortKeys[start], sortKeys[end]) {
			end++
		}
		return end
	}

	switch wf.Name {
	case "ROW_NUMBER":
		for k := range idxs {
			out[idxs[k]] = sqltypes.NewInt(int64(k + 1))
		}
		return nil
	case "RANK", "DENSE_RANK":
		rank, dense := 1, 1
		for k := 0; k < len(idxs); {
			end := peerEnd(k)
			val := int64(rank)
			if wf.Name == "DENSE_RANK" {
				val = int64(dense)
			}
			for p := k; p < end; p++ {
				out[idxs[p]] = sqltypes.NewInt(val)
			}
			rank += end - k
			dense++
			k = end
		}
		return nil
	case "NTILE":
		if len(wf.Args) != 1 {
			return fmt.Errorf("NTILE requires a bucket count")
		}
		nv, err := args[0](rt, in[idxs[0]])
		if err != nil {
			return err
		}
		if nv.Null || nv.I <= 0 {
			return fmt.Errorf("NTILE bucket count must be positive")
		}
		n := len(idxs)
		// More buckets than rows puts row k alone in bucket k+1, which is
		// exactly what buckets=n computes — clamping is result-identical
		// and keeps k*buckets inside int64 for hostile bucket counts.
		buckets := n
		if nv.I < int64(n) {
			buckets = int(nv.I)
		}
		for k := range idxs {
			out[idxs[k]] = sqltypes.NewInt(int64(k*buckets/n + 1))
		}
		return nil
	case "LAG", "LEAD":
		offset := int64(1)
		if len(wf.Args) >= 2 {
			ov, err := args[1](rt, in[idxs[0]])
			if err != nil {
				return err
			}
			offset = ov.I
		}
		for k := range idxs {
			src := k - int(offset)
			if wf.Name == "LEAD" {
				src = k + int(offset)
			}
			if src >= 0 && src < len(idxs) {
				v, err := args[0](rt, in[idxs[src]])
				if err != nil {
					return err
				}
				out[idxs[k]] = v
			} else if len(wf.Args) >= 3 {
				v, err := args[2](rt, in[idxs[k]])
				if err != nil {
					return err
				}
				out[idxs[k]] = v
			} else {
				out[idxs[k]] = sqltypes.Null(wf.Typ.Kind)
			}
		}
		return nil
	case "FIRST_VALUE", "LAST_VALUE":
		for k := 0; k < len(idxs); {
			end := peerEnd(k)
			srcIdx := 0
			if wf.Name == "LAST_VALUE" {
				if wf.Running {
					srcIdx = end - 1
				} else {
					srcIdx = len(idxs) - 1
				}
			}
			v, err := args[0](rt, in[idxs[srcIdx]])
			if err != nil {
				return err
			}
			for p := k; p < end; p++ {
				out[idxs[p]] = v
			}
			k = end
		}
		return nil
	}

	// Aggregate function as a window.
	def, ok := fn.LookupAgg(wf.Name)
	if !ok {
		return fmt.Errorf("unknown window function %s", wf.Name)
	}
	types := make([]sqltypes.Type, len(wf.Args))
	for i, a := range wf.Args {
		types[i] = a.Type()
	}
	addRow := func(state fn.AggState, i int) error {
		if err := rt.tick(); err != nil {
			return err
		}
		vals := make([]sqltypes.Value, len(args))
		for j, a := range args {
			v, err := a(rt, in[i])
			if err != nil {
				return err
			}
			vals[j] = v
		}
		if len(vals) > 0 && vals[0].Null && def.SkipNulls {
			return nil
		}
		return state.Add(vals)
	}

	if !wf.Running {
		state := def.New(types)
		for _, i := range idxs {
			if err := addRow(state, i); err != nil {
				return err
			}
		}
		v := state.Result()
		for _, i := range idxs {
			out[i] = v
		}
		return nil
	}

	// Running frame: accumulate through each peer group, all peers share
	// the value (RANGE UNBOUNDED PRECEDING .. CURRENT ROW).
	state := def.New(types)
	for k := 0; k < len(idxs); {
		end := peerEnd(k)
		for p := k; p < end; p++ {
			if err := addRow(state, idxs[p]); err != nil {
				return err
			}
		}
		v := state.Result()
		for p := k; p < end; p++ {
			out[idxs[p]] = v
		}
		k = end
	}
	return nil
}

func sameKeys(a, b []sqltypes.Value) bool {
	return sqltypes.RowKey(a) == sqltypes.RowKey(b)
}
