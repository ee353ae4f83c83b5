package exec

// This file implements morsel-parallel execution. Operators over
// materialized row slices split their input into contiguous chunks
// ("morsels") claimed dynamically by a small pool of worker goroutines,
// then reassemble outputs in chunk order, so results are bit-identical
// to the serial path. Each worker gets its own runtime (private
// outer-row stack, serial nested execution) while sharing the query's
// settings, stats, and the sharded singleflight memo cache below.

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/plan"
	"github.com/measures-sql/msql/internal/sqltypes"
)

const (
	// morselRows is the chunk size for row-parallel operators: big
	// enough to amortize scheduling, small enough to balance skew.
	morselRows = 4096
	// minParallelRows is the input size below which fan-out overhead
	// outweighs the work and operators stay serial.
	minParallelRows = 2048
)

func resolveWorkers(w int) int {
	if w <= 0 {
		return stdruntime.GOMAXPROCS(0)
	}
	return w
}

// child creates a worker runtime sharing this runtime's caches and
// settings. The outer stack is copied so the worker's nested subquery
// evaluation cannot alias the parent's; workers run nested plans
// serially (workers=1) so fan-out never nests.
func (rt *runtime) child() *runtime {
	outer := make([]Row, len(rt.outer))
	copy(outer, rt.outer)
	return &runtime{sh: rt.sh, outer: outer, workers: 1, sub: rt.sub}
}

// rowParallelism decides worker count and chunk size for a row-wise
// operator over n input rows whose expressions are exprs. Serial (1, 0)
// unless the runtime has spare workers and every expression is
// parallel-safe (no volatile functions). Expressions containing
// subqueries make each row expensive — a handful of rows is then worth
// fanning out at fine granularity (the memo strategy's Project over a
// few hundred group contexts is exactly this shape); cheap expressions
// need a large input and coarse morsels to amortize scheduling.
func (rt *runtime) rowParallelism(n int, exprs ...plan.Expr) (workers, grain int) {
	w := rt.workers
	if w <= 1 || n < 2 {
		return 1, 0
	}
	expensive := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if !plan.ExprParallelSafe(e) {
			return 1, 0
		}
		plan.WalkExprs(e, func(x plan.Expr) {
			if _, ok := x.(*plan.Subquery); ok {
				expensive = true
			}
		})
	}
	grain = morselRows
	if expensive {
		// Fine-grained dynamic claiming; each task is a scan or a cache
		// hit, so per-chunk overhead is irrelevant.
		grain = (n + w*8 - 1) / (w * 8)
		if grain > morselRows {
			grain = morselRows
		}
	} else if n < minParallelRows {
		return 1, 0
	}
	if chunks := (n + grain - 1) / grain; chunks < w {
		w = chunks
	}
	if w <= 1 {
		return 1, 0
	}
	return w, grain
}

// taskParallelism decides the worker count for coarse independent work
// items (window partitions) drawn from totalRows input rows. Serial
// unless there are spare workers, at least two tasks, every expression
// is parallel-safe, and the work is worth fanning out (large input, or
// subquery-bearing expressions that make each task expensive).
func (rt *runtime) taskParallelism(nTasks, totalRows int, exprs ...plan.Expr) int {
	w := rt.workers
	if w <= 1 || nTasks < 2 {
		return 1
	}
	expensive := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if !plan.ExprParallelSafe(e) {
			return 1
		}
		plan.WalkExprs(e, func(x plan.Expr) {
			if _, ok := x.(*plan.Subquery); ok {
				expensive = true
			}
		})
	}
	if !expensive && totalRows < minParallelRows {
		return 1
	}
	if nTasks < w {
		w = nTasks
	}
	return w
}

// runWorkers runs fn on `workers` goroutines, each with its own child
// runtime. It always drains every worker (wg.Wait even on error or
// cancellation — no goroutine outlives the call), recovers worker
// panics into CodeRuntime errors, and returns the most informative
// error: a real failure is preferred over cancellation noise, since
// one worker's error cancels the statement and makes the other
// workers' context errors secondary.
func (rt *runtime) runWorkers(workers int, fn func(w *runtime, worker int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := rt.child()
		wg.Add(1)
		go func(i int, w *runtime) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = PanicError(r, PhaseExecute)
				}
			}()
			if err := failpoint(FailWorkerStart); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(w, i)
		}(i, w)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, CodeCanceled) && !errors.Is(err, CodeTimeout) {
			return err
		}
	}
	return first
}

// numChunks returns how many chunks of the given grain cover n rows.
func numChunks(n, grain int) int { return (n + grain - 1) / grain }

// forEachChunk processes [0, n) in contiguous grain-sized chunks on
// `workers` goroutines; chunks are claimed dynamically, and every
// worker walks its chunks in ascending order. fn must write only chunk-
// or worker-owned state. On error the remaining chunks are abandoned.
func (rt *runtime) forEachChunk(n, workers, grain int, fn func(w *runtime, worker, chunk, lo, hi int) error) error {
	chunks := numChunks(n, grain)
	var next atomic.Int64
	var failed atomic.Bool
	return rt.runWorkers(workers, func(w *runtime, worker int) error {
		for {
			if failed.Load() {
				return nil
			}
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return nil
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if err := fn(w, worker, c, lo, hi); err != nil {
				failed.Store(true)
				return err
			}
		}
	})
}

// forEachTask processes task indices [0, n) on `workers` goroutines,
// one index at a time (for coarse work items like window partitions or
// aggregation groups).
func (rt *runtime) forEachTask(n, workers int, fn func(w *runtime, i int) error) error {
	var next atomic.Int64
	var failed atomic.Bool
	return rt.runWorkers(workers, func(w *runtime, _ int) error {
		for {
			if failed.Load() {
				return nil
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return nil
			}
			if err := fn(w, i); err != nil {
				failed.Store(true)
				return err
			}
		}
	})
}

// projectExprs collects a Project's expressions for safety analysis.
func projectExprs(n *plan.Project) []plan.Expr {
	exprs := make([]plan.Expr, len(n.Exprs))
	for i, ne := range n.Exprs {
		exprs[i] = ne.Expr
	}
	return exprs
}

// projectRow evaluates one Project output row.
func (rt *runtime) projectRow(n *plan.Project, row Row) (Row, error) {
	proj := make(Row, len(n.Exprs))
	for j, ne := range n.Exprs {
		v, err := rt.eval(ne.Expr, row)
		if err != nil {
			return nil, err
		}
		proj[j] = v
	}
	return proj, nil
}

// runFilterParallel evaluates the predicate over morsels in parallel,
// writing a keep-bit per row, then compacts serially in row order.
func (rt *runtime) runFilterParallel(n *plan.Filter, in []Row, workers, grain int) ([]Row, error) {
	keep := make([]bool, len(in))
	err := rt.forEachChunk(len(in), workers, grain, func(w *runtime, _, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := w.tick(); err != nil {
				return err
			}
			v, err := w.eval(n.Pred, in[i])
			if err != nil {
				return err
			}
			keep[i] = v.IsTrue()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Row
	for i, row := range in {
		if keep[i] {
			out = append(out, row)
		}
	}
	return out, nil
}

// runProjectParallel evaluates the projection over morsels in parallel;
// each row's output lands at its own index, so order is preserved.
func (rt *runtime) runProjectParallel(n *plan.Project, in []Row, workers, grain int) ([]Row, error) {
	out := make([]Row, len(in))
	err := rt.forEachChunk(len(in), workers, grain, func(w *runtime, _, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := w.tick(); err != nil {
				return err
			}
			proj, err := w.projectRow(n, in[i])
			if err != nil {
				return err
			}
			out[i] = proj
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sharded singleflight memo cache

// memoShardCount is a power of two comfortably above typical worker
// counts, keeping shard-lock contention negligible.
const memoShardCount = 32

// memoCache memoizes subquery evaluations per (subquery, evaluation
// context) across all workers of one query. Lookups of an in-flight
// entry block until its computation finishes, so concurrent workers
// evaluating the same context trigger exactly one base-table scan —
// the paper's "localized self-join" strategy (§5.1), parallel.
//
// The zero value is ready to use; a shard's map is allocated by its
// first entry, so a runtime that never memoizes (plain queries, the
// engine's constant-folding micro-queries) pays nothing for it.
type memoCache struct {
	shards [memoShardCount]memoShard
}

type memoShard struct {
	mu      sync.Mutex
	entries map[memoCacheKey]*memoEntry
}

type memoCacheKey struct {
	sq  *plan.Subquery
	ctx string
}

// memoEntry holds one computed subquery artifact. Fields are written by
// the computing goroutine before done is closed and read by waiters
// after it is closed (or by the sole owner for uncached evaluation).
type memoEntry struct {
	done   chan struct{}
	scalar sqltypes.Value
	exists bool
	set    *inSet
	err    error
}

// hash32 is FNV-1a, used to shard memo entries and partition aggregate
// groups across workers.
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func memoShardIndex(ctx string) uint32 {
	return hash32(ctx) % memoShardCount
}

// do returns the completed entry for (sq, key), running compute at most
// once across all goroutines. hit reports whether this caller was
// served by the cache — either a finished entry or a wait on another
// goroutine's in-flight computation — rather than computing itself.
// Waiters block with a context escape hatch, so cancellation never
// deadlocks on an in-flight evaluation. If compute panics, the entry is
// poisoned with the recovered error and closed (waking waiters) before
// the panic is re-raised toward the worker's recover — a crashed
// computation must not strand its waiters.
func (c *memoCache) do(ctx context.Context, sq *plan.Subquery, key string, compute func(*memoEntry)) (e *memoEntry, hit bool, err error) {
	s := &c.shards[memoShardIndex(key)]
	k := memoCacheKey{sq: sq, ctx: key}
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			return e, true, nil
		case <-ctx.Done():
			return nil, false, CtxError(ctx.Err())
		}
	}
	e = &memoEntry{done: make(chan struct{})}
	if s.entries == nil {
		s.entries = map[memoCacheKey]*memoEntry{}
	}
	s.entries[k] = e
	s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			e.err = PanicError(r, PhaseExecute)
			close(e.done)
			panic(r)
		}
		close(e.done)
	}()
	compute(e)
	return e, false, nil
}
