package rollup

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/fn"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// valueFn is a compiled expression: it evaluates over one base row.
type valueFn = func([]sqltypes.Value) (sqltypes.Value, error)

// node is one lattice vertex: materialized aggregate states for one
// (base table, key set, aggregate list, row predicate) combination.
// All access goes through mu; the compiled expressions and the scratch
// buffers are single-threaded and only used under it.
type node struct {
	mu        sync.Mutex
	src       *catalog.BaseTable
	srcName   string
	keys      []plan.Expr
	aggs      []aggSpec
	preds     []plan.Expr
	maxGroups int

	// The node's expressions, compiled once when the node is created:
	// row predicates, key expressions, and each aggregate's arguments.
	predFns []func([]sqltypes.Value) (bool, error)
	keyFns  []valueFn
	argFns  [][]valueFn
	// seen is the data state of the rows folded into groups so far.
	seen storage.State

	// The groups, a struct of arrays in the order of each group's first
	// qualifying base row — the executor's first-seen output order, so a
	// group's position is its order. Group g's key tuple (node key order)
	// is keyVals[g*len(keys):] and its aggregate states (nil slots for
	// GROUPING placeholders) states[g*len(aggs):].
	nGroups int
	keyVals []sqltypes.Value
	states  []fn.AggState
	// byKey finds a group by its key tuple: the hash of the tuple's
	// AppendKey encoding (the executor's group identity, RowKey) maps to 1
	// + the newest group with that hash, and chain[g] to 1 + the one
	// before g (0 ends a chain).
	seed  maphash.Seed
	byKey map[uint64]int32
	chain []int32
	// byCol[k] indexes key column k, built when a request first pins it
	// and kept up to date by sync from then on.
	byCol    []*colIndex
	disabled bool

	// Scratch for folding a row: its key tuple and that tuple's encoding,
	// another encoding, and one aggregate's arguments.
	key  []sqltypes.Value
	enc  []byte
	cand []byte
	args []sqltypes.Value

	lastUse int64 // LRU tick, written under the lattice mutex
}

// colIndex maps the hash of a key value's AppendKey encoding to the
// positions of the groups holding that value, ascending. AppendKey folds
// INT and FLOAT of equal value as NotDistinct compares them, so a
// look-up finds every group a term selects (and, on a collision, a few
// more that the term then rejects) — unless a NaN is involved, which
// NotDistinct finds equal to every number.
type colIndex struct {
	pos map[uint64][]int32
	nan bool // a NaN key is indexed: look-ups must scan
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
	maxArgs := 0
	for i := range req.aggs {
		argFns[i] = compile(req.aggs[i].args)
		maxArgs = max(maxArgs, len(req.aggs[i].args))
	}
	return &node{
		src:       req.src,
		srcName:   strings.ToLower(req.src.Name()),
		keys:      req.keys,
		aggs:      req.aggs,
		preds:     req.preds,
		maxGroups: maxGroups,
		predFns:   predFns,
		keyFns:    compile(req.keys),
		argFns:    argFns,
		seen:      storage.State{Gen: req.src.DataState().Gen},
		seed:      maphash.MakeSeed(),
		byKey:     map[uint64]int32{},
		byCol:     make([]*colIndex, len(req.keys)),
		key:       make([]sqltypes.Value, len(req.keys)),
		args:      make([]sqltypes.Value, maxArgs),
	}
}

func (nd *node) keyOf(g int) []sqltypes.Value {
	nk := len(nd.keys)
	return nd.keyVals[g*nk : g*nk+nk]
}

func (nd *node) statesOf(g int) []fn.AggState {
	na := len(nd.aggs)
	return nd.states[g*na : g*na+na]
}

// dropGroups drops every group and every column index.
func (nd *node) dropGroups() {
	nd.nGroups = 0
	nd.keyVals, nd.states, nd.chain = nil, nil, nil
	nd.byKey = map[uint64]int32{}
	for k := range nd.byCol {
		nd.byCol[k] = nil
	}
}

// disable gives up on the node and releases its groups.
func (nd *node) disable() {
	nd.dropGroups()
	nd.byKey = nil
	nd.disabled = true
}

// hash returns the hash of v's AppendKey encoding.
func (nd *node) hash(v sqltypes.Value) uint64 {
	nd.cand = v.AppendKey(nd.cand[:0])
	return maphash.Bytes(nd.seed, nd.cand)
}

// find returns the position of the group whose key tuple encodes to
// nd.enc, which hashes to h, or -1.
func (nd *node) find(h uint64) int {
	for p := nd.byKey[h]; p != 0; p = nd.chain[p-1] {
		g := int(p - 1)
		nd.cand = nd.cand[:0]
		for _, v := range nd.keyOf(g) {
			nd.cand = v.AppendKey(nd.cand)
		}
		if bytes.Equal(nd.cand, nd.enc) {
			return g
		}
	}
	return -1
}

// add appends a group with key tuple nd.key, whose encoding hashes to h,
// and returns its position. The group starts with fresh states.
func (nd *node) add(h uint64) int {
	g := nd.nGroups
	nd.nGroups++
	nd.keyVals = append(nd.keyVals, nd.key...)
	for i := range nd.aggs {
		var st fn.AggState
		if sp := &nd.aggs[i]; sp.def != nil {
			st = sp.def.New(sp.argTypes)
		}
		nd.states = append(nd.states, st)
	}
	nd.chain = append(nd.chain, nd.byKey[h])
	nd.byKey[h] = int32(g + 1)
	for k, ci := range nd.byCol {
		if ci != nil {
			nd.index(ci, k, g)
		}
	}
	return g
}

// index adds group g to ci, the index of key column k.
func (nd *node) index(ci *colIndex, k, g int) {
	v := nd.keyOf(g)[k]
	ci.nan = ci.nan || isNaN(v)
	h := nd.hash(v)
	ci.pos[h] = append(ci.pos[h], int32(g))
}

// column returns the index of key column k, building it on first use.
func (nd *node) column(k int) *colIndex {
	ci := nd.byCol[k]
	if ci == nil {
		ci = &colIndex{pos: map[uint64][]int32{}}
		for g := 0; g < nd.nGroups; g++ {
			nd.index(ci, k, g)
		}
		nd.byCol[k] = ci
	}
	return ci
}

func isNaN(v sqltypes.Value) bool {
	return v.K == sqltypes.KindFloat && !v.Null && math.IsNaN(v.F())
}

// sync brings the node from the state it has seen to now, the state of
// the snapshot rows: rows appended since are the INSERT delta; if the
// seen rows are no longer a prefix of the table the node starts over.
// Delta rows are folded into their groups' states in place, in global
// row order, so each group's Add stream is the one a serial scan makes
// and the states are bit-identical to a rescan's — for every aggregate,
// order-sensitive float accumulation included: only merging states
// depends on order, and sync merges none.
func (nd *node) sync(rows [][]sqltypes.Value, now storage.State, c *counters) error {
	if _, ok := now.Since(nd.seen); !ok {
		nd.dropGroups()
		nd.seen = storage.State{Gen: now.Gen}
		c.invalidations.Add(1)
	}
	for i := nd.seen.Rows; i < len(rows); i++ {
		row := rows[i]
		ok, err := nd.rowKey(row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		h := maphash.Bytes(nd.seed, nd.enc)
		g := nd.find(h)
		if g < 0 {
			g = nd.add(h)
		}
		if err := nd.accumulate(g, row); err != nil {
			return err
		}
		c.incrementalRows.Add(1)
	}
	nd.seen = now
	if nd.nGroups > nd.maxGroups {
		nd.disable()
	}
	return nil
}

// rowKey evaluates row's key tuple into nd.key and its encoding into
// nd.enc; it reports false when row fails a node predicate.
func (nd *node) rowKey(row []sqltypes.Value) (bool, error) {
	for _, p := range nd.predFns {
		if ok, err := p(row); err != nil || !ok {
			return false, err
		}
	}
	nd.enc = nd.enc[:0]
	for k, f := range nd.keyFns {
		v, err := f(row)
		if err != nil {
			return false, err
		}
		nd.key[k] = v
		nd.enc = v.AppendKey(nd.enc)
	}
	return true, nil
}

// accumulate replicates the executor's per-row aggregate accumulation
// (internal/exec/agg.go) for the gate's restricted shape: no DISTINCT,
// WITHIN DISTINCT, or FILTER clauses, so only argument evaluation and
// the SkipNulls rule remain.
func (nd *node) accumulate(g int, row []sqltypes.Value) error {
	states := nd.statesOf(g)
	for ai := range nd.aggs {
		sp := &nd.aggs[ai]
		if sp.def == nil {
			continue
		}
		args := nd.args[:len(sp.args)]
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
		if err := states[ai].Add(args); err != nil {
			return err
		}
	}
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

// selection returns the positions of the groups every active term
// matches, ascending. Each term's column index gives the groups holding
// its value; the shortest of those lists is the candidates, and every
// candidate is still checked against every term, so the selection is
// the one a scan of all groups would make.
func (nd *node) selection(active []activeTerm) []int32 {
	var cands []int32
	scan := true
	for _, t := range active {
		if ci := nd.column(t.key); !ci.nan && !isNaN(t.val) {
			if pos := ci.pos[nd.hash(t.val)]; scan || len(pos) < len(cands) {
				cands, scan = pos, false
			}
		}
	}
	var sel []int32
	pick := func(g int) {
		kv := nd.keyOf(g)
		for _, t := range active {
			if !t.matches(kv[t.key]) {
				return
			}
		}
		sel = append(sel, int32(g))
	}
	if !scan {
		for _, g := range cands {
			pick(int(g))
		}
		return sel
	}
	for g := 0; g < nd.nGroups; g++ {
		pick(g)
	}
	return sel
}

// answer emits the request's output rows from the node's groups,
// reproducing the executor's emit contract exactly: grouping sets in
// order, groups within a set ascending by first qualifying row, absent
// key columns NULL-masked with the group expression's kind, GROUPING
// pseudo-aggregates computed from set membership, and an empty global
// set synthesized from fresh states.
func (nd *node) answer(req *request, active []activeTerm, empty bool) ([][]sqltypes.Value, error) {
	var sel []int32
	if !empty {
		sel = nd.selection(active)
	}

	n := req.n
	var out [][]sqltypes.Value
	for _, set := range n.Sets {
		// inSet has bit j set for each group expression j of the set
		// (the gate admits at most 64).
		var inSet uint64
		for _, j := range set {
			inSet |= 1 << j
		}
		// The selected groups bucketed by their projection onto the set:
		// an output group's members, first-row order throughout.
		buckets := map[string]int{}
		var ordered [][]int32
		for _, g := range sel {
			kv := nd.keyOf(int(g))
			nd.enc = nd.enc[:0]
			for _, j := range set {
				nd.enc = kv[req.groupKey[j]].AppendKey(nd.enc)
			}
			i, ok := buckets[string(nd.enc)]
			if !ok {
				i = len(ordered)
				buckets[string(nd.enc)] = i
				ordered = append(ordered, nil)
			}
			ordered[i] = append(ordered[i], g)
		}
		if len(set) == 0 && len(ordered) == 0 {
			// A global grouping set emits a row even with no input.
			ordered = append(ordered, nil)
		}
		for _, members := range ordered {
			row := make([]sqltypes.Value, 0, len(n.GroupExprs)+len(n.Aggs))
			for j := range n.GroupExprs {
				if inSet&(1<<j) != 0 && len(members) > 0 {
					row = append(row, nd.keyOf(int(members[0]))[req.groupKey[j]])
				} else {
					row = append(row, sqltypes.Null(n.GroupExprs[j].Type().Kind))
				}
			}
			for ai := range req.aggs {
				sp := &req.aggs[ai]
				if sp.def == nil { // GROUPING
					g := int64(1)
					if inSet&(1<<sp.call.KeyIndex) != 0 {
						g = 0
					}
					row = append(row, sqltypes.NewInt(g))
					continue
				}
				switch len(members) {
				case 0:
					row = append(row, sp.def.New(sp.argTypes).Result())
				case 1:
					row = append(row, nd.statesOf(int(members[0]))[ai].Result())
				default:
					// Derive the coarser group by merging finer states in
					// ascending first-row order; gated on derivExact.
					st := sp.def.New(sp.argTypes)
					for _, m := range members {
						if err := st.Merge(nd.statesOf(int(m))[ai]); err != nil {
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
