// Plan cache: compiled query plans keyed by normalized SQL text,
// parameter types, and the settings that influenced planning, with LRU
// eviction. A cached entry carries the optimized plan.Node plus a
// reusable exec.Pipeline (compiled vectorized expression trees and
// pooled batch scratch), so a warm EXECUTE — or a coordinator's or
// shard's plan of a statement whose literals were lifted into
// parameters (PlanQuery, PartialAggregate) — skips parse, bind,
// optimize, and vectorized compilation entirely. Plan and pipeline are derived
// from definitions and valid while the catalog's schema counter stands
// still; the result memo on the entry is derived from rows and follows
// the storage.State of the tables the plan scans (DESIGN.md §4.1).
package engine

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// DefaultPlanCacheSize is the per-session entry cap; SetPlanCacheSize
// changes it (0 disables caching entirely).
const DefaultPlanCacheSize = 128

// cachedPlan is one plan-cache entry: everything runQuery would have
// produced for this (query, parameter types, settings) triple, ready to
// execute with only parameter values injected at run time.
type cachedPlan struct {
	key     string
	schema  int64 // catalog schema counter the plan was built at
	node    plan.Node
	pipe    *exec.Pipeline
	columns []string
	types   []sqltypes.Type
	// sources are the tables the plan scans, subquery plans included.
	sources []plan.RowSource
	// fp is the statement-stats fingerprint of the planned query, so a
	// hit retargets the stats without fingerprinting.
	fp string

	// Identical-binding result memo: dashboards re-issue the same query
	// with the same arguments, so each entry keeps the result rows of
	// its last few parameter bindings, each with the states its sources
	// were in before it was computed.
	memoMu  sync.Mutex
	memo    map[string]*list.Element
	memoLRU *list.List // front = most recent; values are *memoResult
}

// planSources lists the source of every Scan under n.
func planSources(n plan.Node) []plan.RowSource {
	var out []plan.RowSource
	plan.Walk(n, func(x plan.Node) {
		if sc, ok := x.(*plan.Scan); ok {
			out = append(out, sc.Source)
		}
	})
	return out
}

// dataStates reads the current state of every source.
func (e *cachedPlan) dataStates() []storage.State {
	at := make([]storage.State, len(e.sources))
	for i, src := range e.sources {
		at[i] = src.DataState()
	}
	return at
}

// memoMaxRows bounds the size of a memoized result; memoMaxBindings
// bounds how many distinct parameter bindings one entry remembers.
const (
	memoMaxRows     = 4096
	memoMaxBindings = 8
)

type memoResult struct {
	key  string
	at   []storage.State
	rows [][]sqltypes.Value
}

// paramMemoKey encodes parameter values for the result memo. Kinds are
// already fixed by the entry's cache key, so the value encoding alone
// (AppendKey separates NULL, type, and content) is collision-free.
func paramMemoKey(vals []sqltypes.Value) string {
	var buf []byte
	for _, v := range vals {
		buf = v.AppendKey(buf)
	}
	return string(buf)
}

// copyRows deep-copies result rows so a memoized result and the rows
// handed to a caller never share mutable storage.
func copyRows(rows [][]sqltypes.Value) [][]sqltypes.Value {
	if rows == nil {
		return nil
	}
	out := make([][]sqltypes.Value, len(rows))
	for i, r := range rows {
		cr := make([]sqltypes.Value, len(r))
		copy(cr, r)
		out[i] = cr
	}
	return out
}

// memoLookup returns a copy of the rows memoized for this binding if
// every source is, now, in the same state as before they were computed.
func (e *cachedPlan) memoLookup(key string, now []storage.State) ([][]sqltypes.Value, bool) {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	el, ok := e.memo[key]
	if !ok {
		return nil, false
	}
	m := el.Value.(*memoResult)
	for i := range now {
		if !now[i].Same(m.at[i]) {
			return nil, false
		}
	}
	e.memoLRU.MoveToFront(el)
	return copyRows(m.rows), true
}

// memoStore remembers rows for this binding, computed after the sources
// were read to be in states at, evicting the least recently used
// binding past the cap. Oversized results are skipped.
func (e *cachedPlan) memoStore(key string, at []storage.State, rows [][]sqltypes.Value) {
	if len(rows) > memoMaxRows {
		return
	}
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	if e.memo == nil {
		e.memo = map[string]*list.Element{}
		e.memoLRU = list.New()
	}
	if el, ok := e.memo[key]; ok {
		m := el.Value.(*memoResult)
		m.at, m.rows = at, copyRows(rows)
		e.memoLRU.MoveToFront(el)
		return
	}
	e.memo[key] = e.memoLRU.PushFront(&memoResult{key: key, at: at, rows: copyRows(rows)})
	for e.memoLRU.Len() > memoMaxBindings {
		tail := e.memoLRU.Back()
		e.memoLRU.Remove(tail)
		delete(e.memo, tail.Value.(*memoResult).key)
	}
}

// PlanCacheCounters is a point-in-time copy of the plan cache's
// counters, embedded in MetricsSnapshot and served by msqld.
type PlanCacheCounters struct {
	Hits          int64 `json:"hits" prom:"msql_plan_cache_hits_total,counter" help:"Plan lookups (prepared executions, coordinator and shard plans) served from the plan cache."`
	Misses        int64 `json:"misses" prom:"msql_plan_cache_misses_total,counter" help:"Plan lookups that had to plan."`
	Evictions     int64 `json:"evictions" prom:"msql_plan_cache_evictions_total,counter" help:"Plan-cache entries evicted by the LRU cap."`
	Invalidations int64 `json:"invalidations" prom:"msql_plan_cache_invalidations_total,counter" help:"Plan-cache entries dropped after DDL."`
	// Bypasses counts executions that skipped the cache because the
	// plan contains volatile expressions (e.g. RANDOM) or caching is
	// disabled.
	Bypasses int64 `json:"bypasses" prom:"msql_plan_cache_bypasses_total,counter" help:"Plan lookups that skipped the plan cache (volatile or disabled)."`
	// MemoHits counts executions answered from a cached entry's
	// identical-binding result memo without re-executing the plan.
	MemoHits int64 `json:"memo_hits" prom:"msql_plan_cache_memo_hits_total,counter" help:"Prepared executions answered from an entry's identical-binding result memo."`
	// Entries is the current resident entry count (a gauge).
	Entries int64 `json:"entries" prom:"msql_plan_cache_entries,gauge" help:"Plans currently cached."`
}

// planCache is an LRU map of compiled plans. Entries built before the
// latest DDL are dropped at lookup time (counted as invalidations); the
// schema counter is part of the entry, not the key, so DDL invalidates
// rather than strands old entries.
type planCache struct {
	mu    sync.Mutex
	size  int
	lru   *list.List // front = most recently used; values are *cachedPlan
	items map[string]*list.Element

	hits, misses, evictions, invalidations, bypasses, memoHits int64
}

func newPlanCache(size int) *planCache {
	return &planCache{size: size, lru: list.New(), items: map[string]*list.Element{}}
}

// enabled reports whether lookups can ever hit (size > 0).
func (c *planCache) enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size > 0
}

// lookup returns the entry under key if present and built at the
// current schema counter; stale entries are removed and counted as
// invalidations. A nil return is a miss (already counted).
func (c *planCache) lookup(key string, schema int64) *cachedPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil
	}
	e := el.Value.(*cachedPlan)
	if e.schema != schema {
		c.lru.Remove(el)
		delete(c.items, key)
		c.invalidations++
		c.misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e
}

// insert adds an entry, evicting from the LRU tail past the size cap.
// A concurrent insert under the same key wins by replacement; both
// entries are equivalent, so either is safe to serve.
func (c *planCache) insert(e *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.size <= 0 {
		return
	}
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.items[e.key] = c.lru.PushFront(e)
	for c.lru.Len() > c.size {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.items, tail.Value.(*cachedPlan).key)
		c.evictions++
	}
}

// noteBypass counts an execution that skipped the cache.
func (c *planCache) noteBypass() {
	c.mu.Lock()
	c.bypasses++
	c.mu.Unlock()
}

// noteMemoHit counts an execution answered from a result memo.
func (c *planCache) noteMemoHit() {
	c.mu.Lock()
	c.memoHits++
	c.mu.Unlock()
}

// setSize changes the entry cap, evicting down to the new cap; 0 (or
// negative) disables caching and clears the cache. Safe to call while
// executions are in flight — entries already handed out stay valid.
func (c *planCache) setSize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.size = n
	if n <= 0 {
		c.lru.Init()
		c.items = map[string]*list.Element{}
		return
	}
	for c.lru.Len() > n {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.items, tail.Value.(*cachedPlan).key)
		c.evictions++
	}
}

// counters returns a consistent copy of the cache counters.
func (c *planCache) counters() PlanCacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheCounters{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Bypasses:      c.bypasses,
		MemoHits:      c.memoHits,
		Entries:       int64(c.lru.Len()),
	}
}

// planCacheKey builds the full cache key: normalized query text (the
// printer renders parameters canonically as $n), the parameter kind
// signature, and every setting that can change the chosen plan or its
// compiled pipeline. The schema counter is deliberately not part of
// the key — it lives on the entry so that DDL invalidates in place
// instead of stranding stale entries until eviction.
func planCacheKey(sqlNorm string, kinds []sqltypes.Kind, cfg *stmtConfig) string {
	var sb strings.Builder
	sb.WriteString(sqlNorm)
	sb.WriteString("\x00params=")
	for i, k := range kinds {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k.String())
	}
	ex := cfg.exec
	// The timeout is a deadline, not a planning input, and a statement
	// sent with one (a coordinator's call to a shard) carries whatever
	// time it has left.
	limits := ex.Limits
	limits.Timeout = 0
	fmt.Fprintf(&sb, "\x00strategy=%s workers=%d vec=%t memo=%t limits=%+v opt=%+v",
		cfg.strategy, ex.Workers, ex.Vectorized, ex.MemoizeSubqueries, limits, cfg.opt)
	return sb.String()
}

// cacheKeyDigest is the short form shown in spans and EXPLAIN output.
func cacheKeyDigest(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}
