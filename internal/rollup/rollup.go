// Package rollup materializes a cube lattice of aggregate states over
// base tables, in the spirit of Gray et al.'s Data Cube: each lattice
// node holds per-group fn.AggState values (not finalized results) for
// one (base table, grouping-key set, aggregate list, row predicate)
// combination, and coarser grouping sets are derived from finer nodes
// by merging states instead of rescanning base rows. The lattice
// implements exec.RollupProvider: the executor consults it before
// every Aggregate node, so plain GROUP BY dashboards, measure
// evaluation contexts (whose expansion is an Aggregate under a
// key-pinning Filter), AT (ALL …) contexts, and ROLLUP queries are all
// served in O(groups selected) once materialized: a node addresses its
// groups by key, and a request's pinned key values are looked up in
// per-column indexes rather than searched for.
//
// Maintenance: a node records the storage.State of the rows it has
// folded and compares it, at every read, with the state of the table's
// snapshot. Rows appended since are folded into every node in place,
// each aggregate's Init / Iter / Final in Data Cube terms: a group's
// Add stream stays in global row order, the stream a serial rescan
// makes, so the states are bit-identical to a rescan's whatever the
// aggregate — floating-point accumulation included, since only merging
// states depends on order. Any other change (TRUNCATE) resets the node,
// and the next read folds the table from its first row. A replaced
// table is another node; the engine's DDL hook only releases the dead
// one's memory. The lattice is derived state: it is never logged to the
// WAL and rebuilds naturally from the recovered store after a crash.
//
// The correctness bar is bit-identity with direct execution under
// arbitrary query/mutation interleavings; the differential
// mutation-replay suite in msql/rollup_differential_test.go enforces
// it.
package rollup

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

// Defaults bounding lattice memory: more nodes than maxNodes evicts the
// least recently used; a node exceeding maxGroupsPerNode disables
// itself (the key set is too fine to be worth materializing).
const (
	defaultMaxNodes         = 64
	defaultMaxGroupsPerNode = 1 << 16
)

type counters struct {
	hits            atomic.Int64
	misses          atomic.Int64
	builds          atomic.Int64
	rebuilds        atomic.Int64
	incrementalRows atomic.Int64
	invalidations   atomic.Int64
}

// Counters is a snapshot of lattice activity. Hits/Misses count Answer
// outcomes, one per execution of an Aggregate; Builds counts node
// creations; IncrementalRows counts rows folded into node states in
// place, a node's first rows included; Invalidations counts truncate
// resets and DDL drops. Rebuilds stays 0: every node folds its delta
// in place, and the field remains only because the repository
// benchmark still reports it. Nodes/Groups are point-in-time gauges.
type Counters struct {
	Hits            int64 `json:"hits" prom:"msql_rollup_hits_total,counter" help:"Aggregate executions answered from the rollup lattice."`
	Misses          int64 `json:"misses" prom:"msql_rollup_misses_total,counter" help:"Lattice consultations that fell back to direct execution."`
	Builds          int64 `json:"builds" prom:"msql_rollup_builds_total,counter" help:"Rollup lattice nodes materialized."`
	Rebuilds        int64 `json:"rebuilds" prom:"msql_rollup_rebuilds_total,counter" help:"Dirty rollup groups rebuilt lazily from base rows."`
	IncrementalRows int64 `json:"incremental_rows" prom:"msql_rollup_incremental_rows_total,counter" help:"Insert delta rows folded into rollup states in place."`
	Invalidations   int64 `json:"invalidations" prom:"msql_rollup_invalidations_total,counter" help:"Rollup nodes reset by TRUNCATE or dropped by DDL."`
	Nodes           int64 `json:"nodes" prom:"msql_rollup_nodes,gauge" help:"Rollup lattice nodes currently materialized."`
	Groups          int64 `json:"groups" prom:"msql_rollup_groups,gauge" help:"Groups currently materialized across all rollup nodes."`
}

// NodeInfo describes one lattice node for introspection
// (msql_stats.rollups).
type NodeInfo struct {
	Table    string
	Keys     string
	Aggs     string
	Groups   int
	RowsSeen int
	Disabled bool
}

// Lattice is the cube lattice. It is safe for concurrent use; the
// zero value is not usable, construct with New.
type Lattice struct {
	mu       sync.Mutex
	nodes    map[string]*node
	useSeq   int64
	maxNodes int
	maxGrps  int
	c        counters
}

// New returns an empty lattice with default memory bounds.
func New() *Lattice {
	return NewWithLimits(defaultMaxNodes, defaultMaxGroupsPerNode)
}

// NewWithLimits returns an empty lattice with explicit bounds on node
// count (LRU-evicted beyond it) and groups per node (a node crossing it
// disables itself).
func NewWithLimits(maxNodes, maxGroupsPerNode int) *Lattice {
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	if maxGroupsPerNode <= 0 {
		maxGroupsPerNode = defaultMaxGroupsPerNode
	}
	return &Lattice{
		nodes:    map[string]*node{},
		maxNodes: maxNodes,
		maxGrps:  maxGroupsPerNode,
	}
}

// Analyze implements exec.RollupProvider: the eligibility gate, run
// once per plan. It returns the node's request, or nil.
func (l *Lattice) Analyze(n *plan.Aggregate) any {
	if req := analyze(n); req != nil {
		return req
	}
	return nil
}

// Answer implements exec.RollupProvider: one execution of an analysed
// Aggregate, counted as one hit or one miss. It never returns an error
// for lattice-internal failures — those disable the node and miss, so
// the executor's direct path stays authoritative for error behavior; the
// only errors surfaced are ones the direct path would raise identically.
func (l *Lattice) Answer(a any, eval func(plan.Expr) (sqltypes.Value, error)) ([][]sqltypes.Value, bool, error) {
	req, _ := a.(*request)
	if req == nil {
		l.c.misses.Add(1)
		return nil, false, nil
	}

	// Resolve the per-call values before touching the node: guards,
	// selection values, and row-independent conjuncts all come from the
	// calling statement's scope. Evaluation failures fall back to the
	// direct path so error behavior is decided there.
	empty := false
	for _, ce := range req.consts {
		v, err := eval(ce)
		if err != nil {
			l.c.misses.Add(1)
			return nil, false, nil
		}
		if !v.IsTrue() {
			empty = true
		}
	}
	var active []activeTerm
	for _, t := range req.terms {
		inert := false
		for _, g := range t.Guards {
			v, err := eval(g)
			if err != nil {
				l.c.misses.Add(1)
				return nil, false, nil
			}
			if v.IsTrue() {
				inert = true
				break
			}
		}
		if inert {
			continue
		}
		v, err := eval(t.Outer)
		if err != nil {
			l.c.misses.Add(1)
			return nil, false, nil
		}
		active = append(active, activeTerm{key: t.key, val: v, eq: !t.NullSafe})
	}

	// Deriving a coarser grouping than the node's key set merges states
	// of row-wise interleaved groups, which only derivation-exact
	// aggregates reproduce bit for bit. Merging happens whenever some
	// node key column is neither pinned by an active term nor part of
	// the emitted grouping set.
	if !req.derivExact && needsMerge(req, active) {
		l.c.misses.Add(1)
		return nil, false, nil
	}

	nd := l.nodeFor(req)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.disabled {
		l.c.misses.Add(1)
		return nil, false, nil
	}
	rows, now := nd.src.Snapshot()
	if err := nd.sync(rows, now, &l.c); err != nil {
		nd.disable()
		l.c.misses.Add(1)
		return nil, false, nil
	}
	if nd.disabled { // group cap crossed during sync
		l.c.misses.Add(1)
		return nil, false, nil
	}
	out, err := nd.answer(req, active, empty)
	if err != nil {
		nd.disable()
		l.c.misses.Add(1)
		return nil, false, nil
	}
	l.c.hits.Add(1)
	return out, true, nil
}

// needsMerge reports whether answering req requires merging node
// groups: true when any grouping set leaves some node key column
// unconstrained (not pinned by an active term, not in the set). The
// masks have one bit per node key (the gate admits at most 64).
func needsMerge(req *request, active []activeTerm) bool {
	var pinned uint64
	for _, t := range active {
		pinned |= 1 << t.key
	}
	all := uint64(1)<<len(req.keys) - 1
	for _, set := range req.n.Sets {
		covered := pinned
		for _, j := range set {
			covered |= 1 << req.groupKey[j]
		}
		if covered != all {
			return true
		}
	}
	return false
}

// nodeFor finds or creates the node for req, evicting the least
// recently used node beyond the cap.
func (l *Lattice) nodeFor(req *request) *node {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.useSeq++
	if nd, ok := l.nodes[req.nodeKey]; ok {
		nd.lastUse = l.useSeq
		return nd
	}
	if len(l.nodes) >= l.maxNodes {
		var lruKey string
		var lru *node
		for k, nd := range l.nodes {
			if lru == nil || nd.lastUse < lru.lastUse {
				lruKey, lru = k, nd
			}
		}
		delete(l.nodes, lruKey)
	}
	nd := newNode(req, l.maxGrps)
	nd.lastUse = l.useSeq
	l.nodes[req.nodeKey] = nd
	l.c.builds.Add(1)
	return nd
}

// NotifyDDL drops every node over table: after DROP or CREATE OR
// REPLACE the old storage instance is unreachable and its materialized
// state is garbage.
func (l *Lattice) NotifyDDL(table string) {
	table = strings.ToLower(table)
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, nd := range l.nodes {
		if nd.srcName == table {
			delete(l.nodes, k)
			l.c.invalidations.Add(1)
		}
	}
}

// Reset drops all nodes.
func (l *Lattice) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.nodes {
		delete(l.nodes, k)
	}
}

// Stats returns an activity snapshot including point-in-time gauges.
func (l *Lattice) Stats() Counters {
	c := Counters{
		Hits:            l.c.hits.Load(),
		Misses:          l.c.misses.Load(),
		Builds:          l.c.builds.Load(),
		Rebuilds:        l.c.rebuilds.Load(),
		IncrementalRows: l.c.incrementalRows.Load(),
		Invalidations:   l.c.invalidations.Load(),
	}
	l.mu.Lock()
	nodes := make([]*node, 0, len(l.nodes))
	for _, nd := range l.nodes {
		nodes = append(nodes, nd)
	}
	l.mu.Unlock()
	for _, nd := range nodes {
		nd.mu.Lock()
		c.Nodes++
		c.Groups += int64(nd.nGroups)
		nd.mu.Unlock()
	}
	return c
}

// Snapshot lists the lattice nodes for introspection, ordered by table
// then key signature for stable output.
func (l *Lattice) Snapshot() []NodeInfo {
	l.mu.Lock()
	nodes := make([]*node, 0, len(l.nodes))
	for _, nd := range l.nodes {
		nodes = append(nodes, nd)
	}
	l.mu.Unlock()
	infos := make([]NodeInfo, 0, len(nodes))
	for _, nd := range nodes {
		nd.mu.Lock()
		keySigs := make([]string, len(nd.keys))
		for i, k := range nd.keys {
			keySigs[i] = k.String()
		}
		aggSigs := make([]string, len(nd.aggs))
		for i := range nd.aggs {
			aggSigs[i] = nd.aggs[i].sig
		}
		infos = append(infos, NodeInfo{
			Table:    nd.srcName,
			Keys:     strings.Join(keySigs, ", "),
			Aggs:     strings.Join(aggSigs, ", "),
			Groups:   nd.nGroups,
			RowsSeen: nd.seen.Rows,
			Disabled: nd.disabled,
		})
		nd.mu.Unlock()
	}
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].Table != infos[b].Table {
			return infos[a].Table < infos[b].Table
		}
		if infos[a].Keys != infos[b].Keys {
			return infos[a].Keys < infos[b].Keys
		}
		return infos[a].Aggs < infos[b].Aggs
	})
	return infos
}
