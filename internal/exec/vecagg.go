package exec

import (
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/vec"
)

// Vectorized hash aggregation: group expressions, FILTER predicates, and
// aggregate arguments are evaluated column-at-a-time per batch, then a
// row loop folds values into the same grouping table the row path
// uses — so grouping-set semantics, DISTINCT dedup, first-input-row
// group order, and aggregate state transitions are shared, not cloned.

// vecAggExprs is the compiled columnar form of an Aggregate's
// expressions; shared read-only across worker goroutines.
type vecAggExprs struct {
	kinds   []sqltypes.Kind
	groups  []vecExpr
	filters []vecExpr // per aggregate, nil when no FILTER clause
	args    [][]vecExpr
}

// vecAggOK reports whether the vectorized accumulate handles this
// aggregate. WITHIN DISTINCT is excluded: its key evaluation and
// functional-dependence errors interleave with argument evaluation per
// row, which column-major evaluation cannot reproduce exactly.
func (env *aggEnv) vecAggOK() bool {
	if env.positions > 0 {
		return false
	}
	for _, call := range env.n.Aggs {
		if len(call.WithinDistinct) > 0 {
			return false
		}
	}
	return true
}

func compileVecAgg(env *aggEnv, inSchema *plan.Schema) *vecAggExprs {
	kinds := schemaKinds(inSchema)
	width := len(kinds)
	n := env.n
	vea := &vecAggExprs{
		kinds:   kinds,
		groups:  make([]vecExpr, len(n.GroupExprs)),
		filters: make([]vecExpr, len(n.Aggs)),
		args:    make([][]vecExpr, len(n.Aggs)),
	}
	for j, g := range n.GroupExprs {
		vea.groups[j] = vecCompile(g, width)
	}
	for i, call := range n.Aggs {
		if call.Name == "GROUPING" {
			continue
		}
		if call.Filter != nil {
			vea.filters[i] = vecCompile(call.Filter, width)
		}
		args := make([]vecExpr, len(call.Args))
		for j, a := range call.Args {
			args[j] = vecCompile(a, width)
		}
		vea.args[i] = args
	}
	return vea
}

// accumulateRowsVec is accumulateRows batch-at-a-time. Aggregate
// arguments are evaluated only over the rows whose FILTER predicate
// passed — the row path never evaluates arguments on filtered-out rows,
// so the columnar path must not either (an argument that errors on a
// filtered-out row would otherwise fail queries the row engine runs).
func (rt *runtime) accumulateRowsVec(env *aggEnv, vea *vecAggExprs, share *colShare, tables []setTable, in []Row, lo, hi int) error {
	n := env.n
	sc := rt.getAggScratch(n)
	kv := sc.kv
	defer rt.putAggScratch(sc)
	argBufs := sc.argBufs
	filterCols := sc.filterCols
	argCols := sc.argCols
	groupCols := sc.groupCols

	for blo := lo; blo < hi; blo += vec.BatchRows {
		bhi := min(blo+vec.BatchRows, hi)
		bn := bhi - blo
		if err := rt.tickBatch(bn); err != nil {
			return err
		}
		vb := rt.getBatchShared(share, blo, in[blo:bhi], vea.kinds)
		sel := batchIota[:bn]
		for j, g := range vea.groups {
			c, err := g.eval(rt, vb, sel)
			if err != nil {
				return err
			}
			groupCols[j] = c
		}
		for i, call := range n.Aggs {
			if call.Name == "GROUPING" {
				continue
			}
			asel := sel
			filterCols[i] = nil
			if f := vea.filters[i]; f != nil {
				fc, err := f.eval(rt, vb, sel)
				if err != nil {
					return err
				}
				filterCols[i] = fc
				sub := make([]int, 0, bn)
				for _, r := range sel {
					if fc.Value(r).IsTrue() {
						sub = append(sub, r)
					}
				}
				asel = sub
			}
			for j, a := range vea.args[i] {
				argCols[i][j] = nil
				if len(asel) == 0 {
					continue // no row will read this column
				}
				c, err := a.eval(rt, vb, asel)
				if err != nil {
					return err
				}
				argCols[i][j] = c
			}
		}
		for r := 0; r < bn; r++ {
			for j, c := range groupCols {
				kv[j] = c.Value(r)
			}
			for si, set := range n.Sets {
				t := &tables[si]
				g := t.group(hashKey(set, kv), kv, blo+r)
				if err := env.accumulateVecRow(t, g, r, filterCols, argCols, argBufs); err != nil {
					return err
				}
			}
		}
		rt.noteBatch(n, vb)
		rt.putBatch(vb)
	}
	return nil
}

// accumulateVecRow folds row r of the current batch into group g of t,
// mirroring accumulate() over pre-evaluated columns.
func (env *aggEnv) accumulateVecRow(t *setTable, g, r int, filterCols []*vec.Col, argCols [][]*vec.Col, argBufs [][]sqltypes.Value) error {
	states := t.statesOf(g)
	for i, call := range env.n.Aggs {
		if call.Name == "GROUPING" {
			continue
		}
		if fc := filterCols[i]; fc != nil && !fc.Value(r).IsTrue() {
			continue
		}
		args := argBufs[i]
		skip := false
		for j, c := range argCols[i] {
			v := c.Value(r)
			args[j] = v
			if j == 0 && v.Null && env.calls[i].skipNulls {
				skip = true
			}
		}
		if skip {
			continue
		}
		if call.Distinct {
			key := sqltypes.RowKey(args)
			dedup := t.dedup[g*len(env.calls)+i]
			if dedup[key] {
				continue
			}
			dedup[key] = true
		}
		if err := states[i].Add(args); err != nil {
			return err
		}
	}
	return nil
}
