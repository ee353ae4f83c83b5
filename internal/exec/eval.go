// Package exec evaluates logical plans over in-memory rows. It is a
// materializing executor: each operator produces its full result. The
// piece most relevant to the paper is subquery memoization — correlated
// scalar subqueries (which every measure reference compiles to) are
// cached keyed on the outer values they depend on, and the distinct
// contexts of an equality-correlated subquery are answered from one
// hash-partitioned pass over its input (partition.go). Together they are
// the "localized self-join" execution strategy of §5.1: about one pass
// per measure, then probe the cached result.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/internal/storage"
)

// Row is one tuple of values.
type Row = []sqltypes.Value

// Stats counts executor events for one query; the experiment harness and
// tests use it to verify strategies do what they claim (e.g. memoization
// evaluates each distinct context once). Each statement counts into a
// Stats of its own, which starts at zero. Counters are updated
// atomically so they stay exact when Workers > 1.
type Stats struct {
	// SubqueryEvals counts actual subquery plan executions.
	SubqueryEvals int64
	// SubqueryCacheHits counts evaluations served from the memo cache
	// (including waits on another worker's in-flight evaluation).
	SubqueryCacheHits int64
	// RowsScanned counts rows produced by Scan nodes.
	RowsScanned int64
	// ParallelFanouts counts operator executions that fanned out to more
	// than one worker goroutine.
	ParallelFanouts int64
	// VecBatches counts columnar batches processed by the vectorized
	// operators (zero when Settings.Vectorized is off or nothing
	// vectorized).
	VecBatches int64
	// VecKernelRows counts expression-node evaluations done by batch
	// kernels and columnar operators; VecFallbackRows counts the rows a
	// vectorized operator handed back to the row-at-a-time evaluator
	// (subqueries, CASE, anything without a kernel).
	VecKernelRows   int64
	VecFallbackRows int64
	// RollupHits counts Aggregate nodes answered from the materialized
	// rollup lattice instead of hash aggregation over their input.
	RollupHits int64
}

// Snapshot returns a copy taken with atomic loads, safe against
// concurrent updates from worker goroutines.
func (s *Stats) Snapshot() Stats {
	return Stats{
		SubqueryEvals:     atomic.LoadInt64(&s.SubqueryEvals),
		SubqueryCacheHits: atomic.LoadInt64(&s.SubqueryCacheHits),
		RowsScanned:       atomic.LoadInt64(&s.RowsScanned),
		ParallelFanouts:   atomic.LoadInt64(&s.ParallelFanouts),
		VecBatches:        atomic.LoadInt64(&s.VecBatches),
		VecKernelRows:     atomic.LoadInt64(&s.VecKernelRows),
		VecFallbackRows:   atomic.LoadInt64(&s.VecFallbackRows),
		RollupHits:        atomic.LoadInt64(&s.RollupHits),
	}
}

// Settings control execution strategies (for ablation benchmarks).
type Settings struct {
	// MemoizeSubqueries enables the localized self-join strategy: cache
	// subquery results keyed by their correlated inputs. Disabling it
	// re-evaluates subqueries per outer row (the naive strategy).
	MemoizeSubqueries bool
	// Workers bounds the number of goroutines an operator may fan out
	// to. 0 means runtime.GOMAXPROCS(0); 1 runs every operator on the
	// calling goroutine (the exact serial path). Under the bound, each
	// other execution in progress in the process takes one worker away,
	// down to one: a statement alone fans out to the whole bound, and
	// statements side by side share the processors. Results are identical
	// for any value and any load.
	Workers int
	// Vectorized routes filter, project, and hash-aggregate through the
	// columnar batch engine (internal/vec) where every expression either
	// runs as a typed batch kernel or falls back per-expression to the
	// row evaluator. Results are bit-identical to the row engine for any
	// setting; the differential harness enforces it.
	Vectorized bool
	// Stats, when non-nil, accumulates executor counters.
	Stats *Stats
	// Profile, when non-nil, collects per-operator metrics for EXPLAIN
	// ANALYZE. Leaving it nil keeps the instrumented paths to a single
	// nil check per operator call.
	Profile *Profile
	// Tracer, when non-nil, receives execution span events.
	Tracer Tracer
	// Limits bounds the statement's resource consumption; the zero
	// value is unlimited. See Limits for the dimensions.
	Limits Limits
	// Params holds prepared-statement parameter values: a plan.Param
	// with Index i evaluates to Params[i]. Values are constant for the
	// duration of one execution.
	Params []sqltypes.Value
	// Pipeline, when non-nil, carries compiled vectorized expression
	// trees and pooled batch scratch reused across executions of a
	// cached plan. It must only be set for executions of the exact
	// plan.Node the pipeline was built for (compiled trees are keyed by
	// node identity).
	Pipeline *Pipeline
	// Rollups, when non-nil, is consulted before every Aggregate
	// execution; eligible nodes are answered from materialized rollup
	// state instead of rescanning their input. Answers are bit-identical
	// to direct execution for any setting.
	Rollups RollupProvider
}

// DefaultSettings returns the production configuration.
func DefaultSettings() *Settings {
	return &Settings{MemoizeSubqueries: true}
}

// shared is the per-query state common to every worker goroutine: the
// settings, the concurrency-safe subquery memo cache, and what has been
// learned about each memoized subquery (correlation dependencies, the
// partition index). Nothing here outlives the execution.
type shared struct {
	settings *Settings
	// prof mirrors settings.Profile so operators pay one pointer load on
	// the hot path instead of chasing settings.
	prof *Profile
	// ctx carries the statement's cancellation signal; every worker
	// checks it at amortized per-row checkpoints.
	ctx context.Context
	// bud is the statement's resource-consumption ledger.
	bud    *budget
	memo   memoCache
	subsMu sync.RWMutex
	subs   map[*plan.Subquery]*subInfo
	// progs holds the compiled expressions of a plan that is not cached
	// (a cached plan's live in its Pipeline).
	progs progCache
	// scans counts the Scan nodes executed so far; forEachChunk reads it
	// to tell a chunk of lookups from one that read a table.
	scans atomic.Int64
	// links holds this execution's rows and position sets of each
	// plan.RowLink.
	linkMu sync.Mutex
	links  map[*plan.RowLink]*linkRows
	// gathered holds the rows read in place of a source's own
	// (RunGathered); nil reads every source.
	gathered map[plan.RowSource][]Row
}

// subInfo is the per-execution state of one memoized subquery.
type subInfo struct {
	sq *plan.Subquery
	// deps are the references to rows outside the subquery's own frame,
	// for memo keying.
	deps []corrDep
	// contexts counts the distinct evaluation contexts computed so far:
	// a plan whose partition keeps rows is evaluated through it from the
	// second one on.
	contexts atomic.Int64
	// index is this execution's buckets of the plan's partition.
	index partIndex
}

// runtime carries the execution state of one goroutine. The top-level
// runtime owns the full worker budget; worker runtimes created by the
// parallel operators share sh but run nested plans serially.
type runtime struct {
	sh *shared
	// outer is the stack of outer-frame rows; a CorrRef at level L reads
	// outer[len(outer)-L].
	outer []Row
	// workers bounds this goroutine's parallelism for the operators it
	// executes (spareWorkers takes the executions in progress off it);
	// worker runtimes get 1 so fan-out never nests.
	workers int
	// steps counts rows processed since the last cancellation check;
	// tick amortizes the context poll over cancelCheckRows rows.
	steps int
	// args is the scalar-call argument stack: a compiled call pushes its
	// evaluated arguments here instead of allocating a slice per call.
	args []sqltypes.Value
	// keyBuf is the scratch subquery memo keys are encoded in.
	keyBuf []byte
	// truth is the serial Filter's per-row verdict buffer, taken for the
	// duration of one Filter and handed back (see runFilterSerial).
	truth []bool
	// sub is the innermost subquery whose plan is executing (nil in the
	// main plan); it keys operator metrics by plan position.
	sub *plan.Subquery
	// part, when set, is the partition of the subquery whose plan is
	// executing: its correlated Filter, or the Aggregate over it, is
	// answered from the buckets.
	part *partition
	// merged, when set, answers its Aggregate with the groups merged
	// from shards' partial tables (MergePartials).
	merged *mergedAgg
	// inputRows is the row count of the operator output this runtime
	// made last: the input of the operator now evaluating expressions
	// over it. A subquery evaluated by an operator with more than one
	// input row builds a folding partition at its first context.
	inputRows int
	// scanned is the data state of the rows this runtime's latest Scan
	// returned; the operator above the Scan keys its column share by it.
	scanned storage.State
}

// cancelCheckRows is the amortization interval of the cooperative
// cancellation checkpoints: row loops poll the context once per this
// many rows, keeping the per-row overhead to an increment and compare.
const cancelCheckRows = 1024

// tick is the cooperative cancellation checkpoint called from row
// loops. It polls the context every cancelCheckRows calls.
func (rt *runtime) tick() error {
	if rt.steps++; rt.steps < cancelCheckRows {
		return nil
	}
	return rt.tickNow()
}

// tickNow polls the context immediately and resets the amortization
// counter.
func (rt *runtime) tickNow() error {
	rt.steps = 0
	if err := rt.sh.ctx.Err(); err != nil {
		return CtxError(err)
	}
	return nil
}

type corrDep struct {
	levels int // relative to the subquery frame: 1 = immediate outer
	index  int
}

type inSet struct {
	keys    map[string]bool
	hasNull bool
	count   int
}

// add counts one tuple, encoded as key, into s; only a tuple s has not
// seen allocates.
func (s *inSet) add(key []byte, null bool) {
	s.count++
	s.hasNull = s.hasNull || null
	if !s.keys[string(key)] {
		s.keys[string(key)] = true
	}
}

func newRuntime(ctx context.Context, settings *Settings) *runtime {
	return &runtime{
		sh: &shared{
			settings: settings,
			prof:     settings.Profile,
			ctx:      ctx,
			bud:      &budget{limits: settings.Limits},
		},
		workers: resolveWorkers(settings.Workers),
	}
}

func (rt *runtime) outerAt(levels int) (Row, error) {
	if levels <= 0 || levels > len(rt.outer) {
		return nil, fmt.Errorf("correlated reference escapes the available scopes (level %d of %d)", levels, len(rt.outer))
	}
	return rt.outer[len(rt.outer)-levels], nil
}

// collectDeps walks a subquery plan and records every reference to rows
// outside the subquery's own frame, for memo keying.
func collectDeps(sq *plan.Subquery) []corrDep {
	seen := map[corrDep]bool{}
	var deps []corrDep
	var walkNode func(n plan.Node, depth int)
	var walkExpr func(e plan.Expr, depth int)
	walkExpr = func(e plan.Expr, depth int) {
		plan.WalkExprs(e, func(x plan.Expr) {
			switch x := x.(type) {
			case *plan.CorrRef:
				// At nesting depth d (d = 1 directly inside sq.Plan), a
				// reference with Levels >= d escapes sq; relative to
				// sq's own frame it is at level Levels-d+1.
				if x.Levels >= depth {
					d := corrDep{levels: x.Levels - depth + 1, index: x.Index}
					if !seen[d] {
						seen[d] = true
						deps = append(deps, d)
					}
				}
			case *plan.Subquery:
				walkNode(x.Plan, depth+1)
			}
		})
	}
	walkNode = func(n plan.Node, depth int) {
		plan.VisitNodeExprs(n, func(e plan.Expr) { walkExpr(e, depth) })
		for _, c := range n.Children() {
			walkNode(c, depth)
		}
	}
	walkNode(sq.Plan, 1)
	return deps
}

// subInfo returns the execution's state for sq, discovering its
// correlation dependencies on first use.
func (rt *runtime) subInfo(sq *plan.Subquery) *subInfo {
	sh := rt.sh
	sh.subsMu.RLock()
	si := sh.subs[sq]
	sh.subsMu.RUnlock()
	if si != nil {
		return si
	}
	deps := collectDeps(sq)
	sh.subsMu.Lock()
	defer sh.subsMu.Unlock()
	if si = sh.subs[sq]; si == nil {
		if sh.subs == nil {
			sh.subs = map[*plan.Subquery]*subInfo{}
		}
		si = &subInfo{sq: sq, deps: deps}
		sh.subs[sq] = si
	}
	return si
}

// memoKey computes the cache key for a subquery with the given
// dependencies and the current outer frames (with row about to be pushed
// as the immediate outer frame). The key is encoded in rt.keyBuf and
// valid until this runtime next evaluates a subquery; memoCache.do is
// done with it before it computes.
func (rt *runtime) memoKey(deps []corrDep, row Row) ([]byte, error) {
	key := rt.keyBuf[:0]
	for _, d := range deps {
		var frame Row
		if d.levels == 1 {
			frame = row
		} else {
			f, err := rt.outerAt(d.levels - 1)
			if err != nil {
				return nil, err
			}
			frame = f
		}
		if d.index < 0 || d.index >= len(frame) {
			return nil, fmt.Errorf("correlated index %d out of range in memo key", d.index)
		}
		key = frame[d.index].AppendKey(key)
	}
	rt.keyBuf = key
	return key, nil
}

// evalSubquery evaluates sq for the outer row; left is the compiled
// left-hand tuple of an IN.
func (rt *runtime) evalSubquery(sq *plan.Subquery, left []operand, row Row) (sqltypes.Value, error) {
	var e *memoEntry
	if sq.Memo && rt.sh.settings.MemoizeSubqueries {
		si := rt.subInfo(sq)
		key, err := rt.memoKey(si.deps, row)
		if err != nil {
			return sqltypes.Value{}, err
		}
		// Singleflight: workers that race on the same evaluation context
		// wait for the one computing it, so each distinct context is
		// computed exactly once (the parallel "localized self-join"). The
		// wait is context-aware, so a canceled query never blocks on an
		// in-flight evaluation.
		var hit bool
		e, hit, err = rt.sh.memo.do(rt.sh.ctx, sq, key, func(e *memoEntry) {
			rt.computeSubquery(sq, si, row, e)
		})
		if err != nil {
			return sqltypes.Value{}, err
		}
		if hit {
			rt.countHit(sq)
		}
	} else {
		e = &memoEntry{}
		rt.computeSubquery(sq, nil, row, e)
	}
	if e.err != nil {
		return sqltypes.Value{}, e.err
	}

	switch sq.Mode {
	case plan.SubScalar:
		return e.scalar, nil

	case plan.SubExists:
		return sqltypes.NewBool(e.exists != sq.Neg), nil

	case plan.SubIn:
		set := e.set
		// The tuple is evaluated onto the argument stack before any of it
		// is encoded: an element may hold a subquery of its own, which
		// would reuse the key buffer.
		base := len(rt.args)
		leftNull := false
		for i := range left {
			v, err := left[i].load(rt, row)
			if err != nil {
				rt.args = rt.args[:base]
				return sqltypes.Value{}, err
			}
			rt.args = append(rt.args, v)
			if v.Null {
				leftNull = true
			}
		}
		key := rt.keyBuf[:0]
		for _, v := range rt.args[base:] {
			key = v.AppendKey(key)
		}
		rt.args, rt.keyBuf = rt.args[:base], key
		member := set.keys[string(key)]
		if !leftNull && member {
			return sqltypes.NewBool(!sq.Neg), nil
		}
		if (leftNull && set.count > 0) || set.hasNull {
			return sqltypes.Null(sqltypes.KindBool), nil
		}
		return sqltypes.NewBool(sq.Neg), nil

	default:
		return sqltypes.Value{}, fmt.Errorf("unknown subquery mode")
	}
}

// computeSubquery runs sq's plan for the given outer row and fills e
// with the mode-specific artifact (scalar value, existence bit, or IN
// set); the per-row parts of IN are applied by the caller. si is nil on
// the unmemoized path.
func (rt *runtime) computeSubquery(sq *plan.Subquery, si *subInfo, row Row, e *memoEntry) {
	rows, set, err := rt.runNested(sq, si, row)
	if err != nil {
		e.err = err
		return
	}
	if set != nil {
		e.set = set
		return
	}
	switch sq.Mode {
	case plan.SubScalar:
		switch len(rows) {
		case 0:
			e.scalar = sqltypes.Null(sq.Typ.Kind)
		case 1:
			e.scalar = rows[0][0]
		default:
			e.err = fmt.Errorf("scalar subquery returned %d rows", len(rows))
		}
	case plan.SubExists:
		e.exists = len(rows) > 0
	case plan.SubIn:
		// A row is encoded into the runtime's key scratch: the set
		// allocates per distinct tuple.
		set := &inSet{keys: map[string]bool{}}
		key := rt.keyBuf
		for _, r := range rows {
			key = key[:0]
			null := false
			for _, v := range r {
				key = v.AppendKey(key)
				null = null || v.Null
			}
			set.add(key, null)
		}
		rt.keyBuf = key
		e.set = set
	}
}

func (rt *runtime) countHit(sq *plan.Subquery) {
	if s := rt.sh.settings.Stats; s != nil {
		atomic.AddInt64(&s.SubqueryCacheHits, 1)
	}
	if p := rt.sh.prof; p != nil {
		p.SubqueryMetrics(sq).AddCacheHit()
	}
}

// runNested executes sq's plan with row pushed as the immediate outer
// frame. Under the memo strategy it runs once per distinct context, and a
// plan with an equality-correlated Filter is evaluated through the
// subquery's partition (partition.go) — from the first context when the
// partition folds and the evaluating operator has more than one input
// row, from the second otherwise. A partition folding IN sets answers
// with the context's set and no rows.
func (rt *runtime) runNested(sq *plan.Subquery, si *subInfo, row Row) (rows []Row, set *inSet, err error) {
	if err := rt.sh.bud.noteSubqueryEval(len(rt.outer) + 1); err != nil {
		return nil, nil, err
	}
	if err := failpoint(FailSubqueryEval); err != nil {
		return nil, nil, err
	}
	if s := rt.sh.settings.Stats; s != nil {
		atomic.AddInt64(&s.SubqueryEvals, 1)
	}
	if p := rt.sh.prof; p != nil {
		p.SubqueryMetrics(sq).AddEval()
	}
	var part *partition
	if si != nil {
		later := si.contexts.Add(1) > 1
		if p := rt.partition(sq); p != nil && (later || p.folds() && rt.inputRows > 1) {
			part = p
		}
	}
	sub, outerPart, inputRows := rt.sub, rt.part, rt.inputRows
	rt.sub, rt.part = sq, part
	rt.outer = append(rt.outer, row)
	ok := false
	if part != nil && part.fold == foldSet {
		set, ok, err = part.set(rt)
	}
	if !ok && err == nil {
		rows, err = rt.run(sq.Plan)
	}
	rt.outer = rt.outer[:len(rt.outer)-1]
	rt.sub, rt.part, rt.inputRows = sub, outerPart, inputRows
	return rows, set, err
}
