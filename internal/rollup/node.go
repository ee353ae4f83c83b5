package rollup

import (
	"hash/maphash"
	"math"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/catalog"
	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// node is one lattice vertex: materialized aggregate states for one
// (base table, key set, aggregate list, row predicate) combination. Its
// groups are an exec.Table: the executor's grouping table, folding the
// base rows with the kernel of agg, the one-set Aggregate of the node's
// keys, aggregates and predicates. Group g's key tuple is in node key
// order, its states in aggregate order, nil for GROUPING placeholders;
// groups are in the order of their first qualifying base row — the
// executor's first-seen output order, so a group's position is its
// order. A node renders nothing: Lattice.Answer hands its table and a
// selection of its groups to the requesting Aggregate's emit. All access
// goes through mu.
type node struct {
	mu        sync.Mutex
	src       *catalog.BaseTable
	srcName   string
	keys      []plan.Expr
	aggs      []aggSpec
	agg       *plan.Aggregate
	maxGroups int

	// seen is the data state of the rows folded into groups so far.
	seen storage.State
	// tab holds the groups: nil until a row is folded, and after a reset.
	tab *exec.Table
	// byCol[k] indexes key column k, built when a request first pins it
	// and kept up to date by sync from then on, by values' KeyHash under
	// seed.
	byCol    []*colIndex
	seed     maphash.Seed
	disabled bool

	lastUse int64 // LRU tick, written under the lattice mutex
}

// colIndex maps the hash of a key value (sqltypes.Value.KeyHash, alike
// for values of one AppendKey encoding) to the positions of the groups
// holding that value, ascending. AppendKey folds INT and FLOAT of equal
// value as NotDistinct compares them, so a look-up finds every group a
// term selects (and, on a collision, a few more that the term then
// rejects) — unless a NaN is involved, which NotDistinct finds equal to
// every number.
type colIndex struct {
	pos map[uint64][]int32
	nan bool // a NaN key is indexed: look-ups must scan
}

func newNode(req *request, maxGroups int) *node {
	set := make([]int, len(req.keys))
	for i := range set {
		set[i] = i
	}
	agg := &plan.Aggregate{Input: req.scan, GroupExprs: req.keys, Sets: [][]int{set}}
	for _, sp := range req.aggs {
		// A GROUPING placeholder keeps no state: the Aggregate's emit
		// computes it.
		agg.Aggs = append(agg.Aggs, plan.AggCall{Name: sp.call.Name, Args: sp.args, Star: sp.call.Star, KeyIndex: -1, Typ: sp.call.Typ})
	}
	if len(req.preds) > 0 {
		pred := req.preds[0]
		for _, p := range req.preds[1:] {
			pred = &plan.And{L: pred, R: p}
		}
		agg.Input = &plan.Filter{Input: req.scan, Pred: pred}
	}
	return &node{
		src:       req.src,
		srcName:   strings.ToLower(req.src.Name()),
		keys:      req.keys,
		aggs:      req.aggs,
		agg:       agg,
		maxGroups: maxGroups,
		seen:      storage.State{Gen: req.src.DataState().Gen},
		byCol:     make([]*colIndex, len(req.keys)),
		seed:      maphash.MakeSeed(),
	}
}

// dropGroups drops every group and every column index.
func (nd *node) dropGroups() { nd.tab, nd.byCol = nil, make([]*colIndex, len(nd.keys)) }

// disable gives up on the node and releases its groups.
func (nd *node) disable() {
	nd.dropGroups()
	nd.disabled = true
}

// index adds group g to ci, the index of key column k.
func (nd *node) index(ci *colIndex, k, g int) {
	v := nd.tab.Key(g)[k]
	ci.nan = ci.nan || isNaN(v)
	h := v.KeyHash(nd.seed)
	ci.pos[h] = append(ci.pos[h], int32(g))
}

// column returns the index of key column k, building it on first use.
func (nd *node) column(k int) *colIndex {
	ci := nd.byCol[k]
	if ci == nil {
		ci = &colIndex{pos: map[uint64][]int32{}}
		for g := 0; g < nd.tab.Len(); g++ {
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
	if nd.seen.Rows < len(rows) {
		if nd.tab == nil {
			tab, err := exec.NewTable(nd.agg)
			if err != nil {
				return err
			}
			nd.tab = tab
		}
		before := nd.tab.Len()
		n, err := nd.tab.Fold(rows, nd.seen.Rows)
		c.incrementalRows.Add(int64(n))
		if err != nil {
			return err
		}
		for k, ci := range nd.byCol {
			for g := before; ci != nil && g < nd.tab.Len(); g++ {
				nd.index(ci, k, g)
			}
		}
	}
	nd.seen = now
	if nd.tab.Len() > nd.maxGroups {
		nd.disable()
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
			if pos := ci.pos[t.val.KeyHash(nd.seed)]; scan || len(pos) < len(cands) {
				cands, scan = pos, false
			}
		}
	}
	var sel []int32
	pick := func(g int) {
		kv := nd.tab.Key(g)
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
	for g := 0; g < nd.tab.Len(); g++ {
		pick(g)
	}
	return sel
}
