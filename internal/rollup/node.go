package rollup

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// group is one materialized grouping partition of a node: the key tuple
// (node key order), one aggregate state per node aggregate (nil slots
// for GROUPING placeholders), and the index of the group's first
// qualifying base row, which reproduces the executor's first-seen
// output order. A dirty group's states are stale and must be rebuilt
// from the base rows before being read.
type group struct {
	key    []sqltypes.Value
	states []fn.AggState
	order  int
	dirty  bool
}

// valueFn is a compiled expression: it evaluates over one base row.
type valueFn = func([]sqltypes.Value) (sqltypes.Value, error)

// node is one lattice vertex: materialized aggregate states for one
// (base table, key set, aggregate list, row predicate) combination.
// All access goes through mu; the compiled expressions are single-threaded
// and only called under it.
type node struct {
	mu        sync.Mutex
	src       *catalog.BaseTable
	srcName   string
	keys      []plan.Expr
	aggs      []aggSpec
	preds     []plan.Expr
	exact     bool
	maxGroups int

	// The node's expressions, compiled once when the node is created:
	// row predicates, key expressions, and each aggregate's arguments.
	predFns []func([]sqltypes.Value) (bool, error)
	keyFns  []valueFn
	argFns  [][]valueFn
	// seen is the data state of the rows folded into groups so far.
	seen     storage.State
	groups   map[string]*group
	nDirty   int
	disabled bool

	lastUse int64 // LRU tick, written under the lattice mutex
}

func newNode(req *request, maxGroups int) *node {
	ev := exec.NewEvaluator()
	compile := func(exprs []plan.Expr) []valueFn {
		fns := make([]valueFn, len(exprs))
		for i, e := range exprs {
			fns[i] = ev.Compile(e)
		}
		return fns
	}
	predFns := make([]func([]sqltypes.Value) (bool, error), len(req.preds))
	for i, p := range req.preds {
		predFns[i] = ev.CompilePred(p)
	}
	argFns := make([][]valueFn, len(req.aggs))
	for i := range req.aggs {
		argFns[i] = compile(req.aggs[i].args)
	}
	return &node{
		src:       req.src,
		srcName:   strings.ToLower(req.src.Name()),
		keys:      req.keys,
		aggs:      req.aggs,
		preds:     req.preds,
		exact:     req.exact,
		maxGroups: maxGroups,
		predFns:   predFns,
		keyFns:    compile(req.keys),
		argFns:    argFns,
		seen:      storage.State{Gen: req.src.DataState().Gen},
		groups:    map[string]*group{},
	}
}

func (nd *node) newStates() []fn.AggState {
	states := make([]fn.AggState, len(nd.aggs))
	for i := range nd.aggs {
		if nd.aggs[i].def == nil {
			continue
		}
		states[i] = nd.aggs[i].def.New(nd.aggs[i].argTypes)
	}
	return states
}

// sync brings the node from the state it has seen to now, the state of
// the snapshot rows: rows appended since are the INSERT delta; if the
// seen rows are no longer a prefix of the table the node starts over.
// Exactly-mergeable nodes accumulate delta rows in place (incremental
// maintenance: each group's Add stream stays in global row order,
// identical to a serial rescan); order-sensitive nodes only mark the
// touched groups dirty for lazy rebuild.
func (nd *node) sync(rows [][]sqltypes.Value, now storage.State, c *counters) error {
	if _, ok := now.Since(nd.seen); !ok {
		nd.groups = map[string]*group{}
		nd.nDirty = 0
		nd.seen = storage.State{Gen: now.Gen}
		c.invalidations.Add(1)
	}
	for i := nd.seen.Rows; i < len(rows); i++ {
		row := rows[i]
		kv, err := nd.rowKey(row)
		if err != nil {
			return err
		}
		if kv == nil {
			continue
		}
		key := sqltypes.RowKey(kv)
		g := nd.groups[key]
		if g == nil {
			g = &group{key: kv, order: i}
			if nd.exact {
				g.states = nd.newStates()
			} else {
				g.dirty = true
				nd.nDirty++
			}
			nd.groups[key] = g
		}
		if nd.exact {
			if err := nd.accumulate(g, row); err != nil {
				return err
			}
			c.incrementalRows.Add(1)
		} else if !g.dirty {
			g.dirty = true
			nd.nDirty++
		}
	}
	nd.seen = now
	if len(nd.groups) > nd.maxGroups {
		nd.disabled = true
		nd.groups = nil
	}
	return nil
}

// rowKey returns row's key tuple, or nil when row fails a node predicate.
func (nd *node) rowKey(row []sqltypes.Value) ([]sqltypes.Value, error) {
	for _, p := range nd.predFns {
		if ok, err := p(row); err != nil || !ok {
			return nil, err
		}
	}
	kv := make([]sqltypes.Value, len(nd.keyFns))
	for k, f := range nd.keyFns {
		v, err := f(row)
		if err != nil {
			return nil, err
		}
		kv[k] = v
	}
	return kv, nil
}

// accumulate replicates the executor's per-row aggregate accumulation
// (internal/exec/agg.go) for the gate's restricted shape: no DISTINCT,
// WITHIN DISTINCT, or FILTER clauses, so only argument evaluation and
// the SkipNulls rule remain.
func (nd *node) accumulate(g *group, row []sqltypes.Value) error {
	for ai := range nd.aggs {
		sp := &nd.aggs[ai]
		if sp.def == nil {
			continue
		}
		args := make([]sqltypes.Value, len(sp.args))
		skip := false
		for j, a := range nd.argFns[ai] {
			v, err := a(row)
			if err != nil {
				return err
			}
			args[j] = v
			if j == 0 && v.Null && sp.def.SkipNulls {
				skip = true
			}
		}
		if skip {
			continue
		}
		if err := g.states[ai].Add(args); err != nil {
			return err
		}
	}
	return nil
}

// rebuildDirty recomputes every dirty group's states in one pass over
// the synced prefix of the snapshot, in global row order — the lazy
// rebuild path for order-sensitive aggregates.
func (nd *node) rebuildDirty(rows [][]sqltypes.Value, c *counters) error {
	if nd.nDirty == 0 {
		return nil
	}
	for _, g := range nd.groups {
		if g.dirty {
			g.states = nd.newStates()
		}
	}
	for _, row := range rows {
		kv, err := nd.rowKey(row)
		if err != nil {
			return err
		}
		if kv == nil {
			continue
		}
		g := nd.groups[sqltypes.RowKey(kv)]
		if g == nil || !g.dirty {
			continue
		}
		if err := nd.accumulate(g, row); err != nil {
			return err
		}
	}
	c.rebuilds.Add(int64(nd.nDirty))
	for _, g := range nd.groups {
		g.dirty = false
	}
	nd.nDirty = 0
	return nil
}

// activeTerm is a filter term whose guards did not fire: groups must
// match val on key column key.
type activeTerm struct {
	key int
	val sqltypes.Value
	eq  bool
}

func (t activeTerm) matches(kv sqltypes.Value) bool {
	if t.eq {
		// SQL `=`: a NULL on either side is not TRUE, so it never
		// selects a group.
		if t.val.Null || kv.Null {
			return false
		}
		return sqltypes.NotDistinct(kv, t.val)
	}
	return sqltypes.NotDistinct(kv, t.val)
}

// answer emits the request's output rows from the node's groups,
// reproducing the executor's emit contract exactly: grouping sets in
// order, groups within a set ascending by first qualifying row, absent
// key columns NULL-masked with the group expression's kind, GROUPING
// pseudo-aggregates computed from set membership, and an empty global
// set synthesized from fresh states.
func (nd *node) answer(req *request, active []activeTerm, empty bool) ([][]sqltypes.Value, error) {
	var sel []*group
	if !empty {
		for _, g := range nd.groups {
			match := true
			for _, t := range active {
				if !t.matches(g.key[t.key]) {
					match = false
					break
				}
			}
			if match {
				sel = append(sel, g)
			}
		}
		sortGroups(sel)
	}

	n := req.n
	var out [][]sqltypes.Value
	for _, set := range n.Sets {
		inSet := make(map[int]bool, len(set))
		for _, j := range set {
			inSet[j] = true
		}
		type outGroup struct {
			members []*group
			order   int
		}
		buckets := map[string]*outGroup{}
		var ordered []*outGroup
		for _, g := range sel {
			proj := make([]sqltypes.Value, len(set))
			for k, j := range set {
				proj[k] = g.key[req.groupKey[j]]
			}
			bk := sqltypes.RowKey(proj)
			og := buckets[bk]
			if og == nil {
				og = &outGroup{order: g.order}
				buckets[bk] = og
				ordered = append(ordered, og)
			}
			og.members = append(og.members, g)
		}
		if len(set) == 0 && len(ordered) == 0 {
			// A global grouping set emits a row even with no input.
			ordered = append(ordered, &outGroup{})
		}
		for _, og := range ordered {
			row := make([]sqltypes.Value, 0, len(n.GroupExprs)+len(n.Aggs))
			for j := range n.GroupExprs {
				if inSet[j] && len(og.members) > 0 {
					row = append(row, og.members[0].key[req.groupKey[j]])
				} else {
					row = append(row, sqltypes.Null(n.GroupExprs[j].Type().Kind))
				}
			}
			for ai := range req.aggs {
				sp := &req.aggs[ai]
				if sp.def == nil { // GROUPING
					g := int64(1)
					if inSet[sp.call.KeyIndex] {
						g = 0
					}
					row = append(row, sqltypes.NewInt(g))
					continue
				}
				switch len(og.members) {
				case 0:
					row = append(row, sp.def.New(sp.argTypes).Result())
				case 1:
					row = append(row, og.members[0].states[ai].Result())
				default:
					// Derive the coarser group by merging finer states in
					// ascending first-row order; gated on derivExact.
					st := sp.def.New(sp.argTypes)
					for _, m := range og.members {
						if err := st.Merge(m.states[ai]); err != nil {
							return nil, fmt.Errorf("rollup derivation merge: %w", err)
						}
					}
					row = append(row, st.Result())
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func sortGroups(gs []*group) {
	// Map iteration order is random; sort by first qualifying row.
	sort.Slice(gs, func(a, b int) bool { return gs[a].order < gs[b].order })
}
