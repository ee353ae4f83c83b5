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

// inProgress counts the executions in progress in this process: every
// RunContext and PartialAggregate call, from entry to return. The
// processors are the process's, so the count spans every session and
// server in it.
var inProgress atomic.Int64

// spareWorkers is how many workers an operator of this execution may fan
// out to now: the runtime's bound, less one for every other execution in
// progress, and at least one. A statement running alone fans out to its
// whole bound; statements running side by side share the processors
// instead of each sending workers onto the others' (morsel-driven
// scheduling's elastic degree of parallelism). Worker runtimes have a
// bound of one, so fan-out never nests.
func (rt *runtime) spareWorkers() int {
	w := rt.workers
	return min(w, max(1, w-int(inProgress.Load()-1)))
}

// child creates a worker runtime sharing this runtime's caches and
// settings. The outer stack is copied so the worker's nested subquery
// evaluation cannot alias the parent's; workers run nested plans
// serially (workers=1) so fan-out never nests.
func (rt *runtime) child() *runtime {
	outer := make([]Row, len(rt.outer))
	copy(outer, rt.outer)
	return &runtime{sh: rt.sh, outer: outer, workers: 1, sub: rt.sub, inputRows: rt.inputRows}
}

// fanout is how a row-wise operator splits its input: workers goroutines
// claim chunks of grain rows. onScan marks rows that are dear only if
// their subqueries read a table; see forEachChunk.
type fanout struct {
	workers, grain int
	onScan         bool
}

// rowParallelism decides worker count and chunk size for a row-wise
// operator over n input rows whose expressions have traits t. Serial
// (one worker) unless the execution has spare workers and every expression
// is parallel-safe (no volatile functions). Expressions containing
// subqueries make each row expensive — a handful of rows is then worth
// fanning out at fine granularity (the memo strategy's Project over a
// few hundred group contexts is exactly this shape); cheap expressions
// need a large input and coarse morsels to amortize scheduling.
func (rt *runtime) rowParallelism(n int, t exprTraits) fanout {
	return rowFanout(rt.spareWorkers(), n, t)
}

// rowFanout is rowParallelism with at most w workers.
func rowFanout(w, n int, t exprTraits) fanout {
	serial := fanout{workers: 1}
	if w <= 1 || n < 2 || t.serial() {
		return serial
	}
	grain := morselRows
	if t.subquery() {
		// Fine-grained dynamic claiming; each task is a scan or a cache
		// hit, so per-chunk overhead is irrelevant.
		grain = (n + w*8 - 1) / (w * 8)
		if grain > morselRows {
			grain = morselRows
		}
	} else if n < minParallelRows {
		return serial
	}
	if chunks := (n + grain - 1) / grain; chunks < w {
		w = chunks
	}
	if w <= 1 {
		return serial
	}
	return fanout{workers: w, grain: grain, onScan: t.subquery()}
}

// taskParallelism decides the worker count for coarse independent work
// items (window partitions) drawn from totalRows input rows. Serial
// unless there are spare workers, at least two tasks, every expression
// is parallel-safe, and the work is worth fanning out (large input, or
// subquery-bearing expressions that make each task expensive).
func (rt *runtime) taskParallelism(nTasks, totalRows int, t exprTraits) int {
	w := rt.spareWorkers()
	if w <= 1 || nTasks < 2 || t.serial() {
		return 1
	}
	if !t.subquery() && totalRows < minParallelRows {
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
// error (see firstFailure).
func (rt *runtime) runWorkers(workers int, fn func(w *runtime, worker int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range errs {
		rt.startWorker(&wg, errs, i, fn)
	}
	wg.Wait()
	return firstFailure(errs)
}

// startWorker starts worker i of a fan-out on a goroutine of its own;
// its error, or its panic as an error, lands in errs[i].
func (rt *runtime) startWorker(wg *sync.WaitGroup, errs []error, i int, fn func(w *runtime, worker int) error) {
	w := rt.child()
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[i] = recovered(func() error {
			if err := failpoint(FailWorkerStart); err != nil {
				return err
			}
			return fn(w, i)
		})
	}()
}

// recovered runs fn and reports a panic in it as a CodeRuntime error.
func recovered(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = PanicError(r, PhaseExecute)
		}
	}()
	return fn()
}

// firstFailure picks the error a fan-out reports: a real failure is
// preferred over cancellation noise, since one worker's error cancels
// the statement and makes the other workers' context errors secondary.
func firstFailure(errs []error) error {
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

// forEachChunk processes [0, n) in contiguous chunks of f.grain rows on
// f.workers goroutines; chunks are claimed dynamically, and every worker
// walks its chunks in ascending order. fn must write only chunk- or
// worker-owned state. On error the remaining chunks are abandoned.
//
// With f.onScan the calling goroutine is worker 0 and starts on the
// chunks at once; the other workers are called in only after a chunk has
// read a table. Rows whose subqueries the rollup lattice or a context
// memo answers are lookups: handing those to a goroutine on another CPU
// gains nothing (the lattice answers one request per node at a time) and
// ties the statement's latency to how soon that CPU is scheduled.
func (rt *runtime) forEachChunk(n int, f fanout, fn func(w *runtime, worker, chunk, lo, hi int) error) error {
	chunks := numChunks(n, f.grain)
	var next atomic.Int64
	var failed atomic.Bool
	// claim runs the next unclaimed chunk; more is false once none is left.
	claim := func(w *runtime, worker int) (more bool, err error) {
		if failed.Load() {
			return false, nil
		}
		c := int(next.Add(1)) - 1
		if c >= chunks {
			return false, nil
		}
		lo := c * f.grain
		hi := min(lo+f.grain, n)
		if err := fn(w, worker, c, lo, hi); err != nil {
			failed.Store(true)
			return false, err
		}
		return true, nil
	}
	drain := func(w *runtime, worker int) error {
		for {
			if more, err := claim(w, worker); !more {
				return err
			}
		}
	}
	if !f.onScan {
		return rt.runWorkers(f.workers, drain)
	}

	errs := make([]error, f.workers)
	var wg sync.WaitGroup
	errs[0] = recovered(func() error {
		w, calledIn := rt.child(), false
		for {
			scans := rt.sh.scans.Load()
			if more, err := claim(w, 0); !more {
				return err
			}
			if !calledIn && rt.sh.scans.Load() != scans {
				calledIn = true
				for i := 1; i < f.workers; i++ {
					rt.startWorker(&wg, errs, i, drain)
				}
			}
		}
	})
	wg.Wait()
	return firstFailure(errs)
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

// projectRows evaluates the projection of in[lo:hi] into out[lo:hi].
// The output rows are carved from one block, so the chunk allocates
// once.
func (rt *runtime) projectRows(fns []evalFn, in, out []Row, lo, hi int) error {
	blk := newRowBlock(len(fns), hi-lo)
	for i := lo; i < hi; i++ {
		if err := rt.tick(); err != nil {
			return err
		}
		row := blk.next()
		for j, f := range fns {
			v, err := f(rt, in[i])
			if err != nil {
				return err
			}
			row[j] = v
		}
		out[i] = row
	}
	return nil
}

// filterRows is a Filter's predicate loop: it hands the rows of
// in[lo:hi] that pred passes to sink, each with its index in in. The
// Filter's own sink marks them (keepSink); an Aggregate that fuses the
// Filter folds them (fuse.go).
func (rt *runtime) filterRows(pred predFn, in []Row, lo, hi int, sink rowSink) error {
	for i := lo; i < hi; i++ {
		if err := rt.tick(); err != nil {
			return err
		}
		t, err := pred(rt, in[i])
		if err != nil {
			return err
		}
		if t == triTrue {
			if err := sink.emit(rt, in[i], i); err != nil {
				return err
			}
		}
	}
	return nil
}

// keepSink is the materializing sink of a Filter: a verdict per input
// row, all false until the predicate passes the row.
type keepSink []bool

func (k keepSink) emit(_ *runtime, _ Row, i int) error {
	k[i] = true
	return nil
}

// keptRows returns the rows of in whose keep bit is set, in order, in a
// slice allocated once at its final size (nil when no row is kept).
func keptRows(in []Row, keep []bool) []Row {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Row, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, in[i])
		}
	}
	return out
}

// runFilterSerial evaluates the predicate row by row into the runtime's
// verdict buffer. The buffer is taken for the duration: the predicate may
// run a subquery whose plan filters on this same runtime.
func (rt *runtime) runFilterSerial(pred predFn, in []Row) ([]Row, error) {
	keep := rt.truth
	rt.truth = nil
	if cap(keep) < len(in) {
		keep = make([]bool, len(in))
	}
	keep = keep[:len(in)]
	clear(keep)
	err := rt.filterRows(pred, in, 0, len(in), keepSink(keep))
	var out []Row
	if err == nil {
		out = keptRows(in, keep)
	}
	rt.truth = keep
	return out, err
}

// runFilterParallel evaluates the predicate over morsels in parallel,
// writing a keep-bit per row, then compacts serially in row order.
func (rt *runtime) runFilterParallel(pred predFn, in []Row, f fanout) ([]Row, error) {
	keep := make([]bool, len(in))
	err := rt.forEachChunk(len(in), f, func(w *runtime, _, _, lo, hi int) error {
		return w.filterRows(pred, in, lo, hi, keepSink(keep))
	})
	if err != nil {
		return nil, err
	}
	return keptRows(in, keep), nil
}

// runProjectParallel evaluates the projection over morsels in parallel;
// each row's output lands at its own index, so order is preserved.
func (rt *runtime) runProjectParallel(fns []evalFn, in []Row, f fanout) ([]Row, error) {
	out := make([]Row, len(in))
	err := rt.forEachChunk(len(in), f, func(w *runtime, _, _, lo, hi int) error {
		return w.projectRows(fns, in, out, lo, hi)
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

// hash32 is FNV-1a, used to shard memo entries.
func hash32(s []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func memoShardIndex(ctx []byte) uint32 {
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
// computation must not strand its waiters. key is the caller's scratch:
// it is copied when an entry is created and not read once compute runs.
func (c *memoCache) do(ctx context.Context, sq *plan.Subquery, key []byte, compute func(*memoEntry)) (e *memoEntry, hit bool, err error) {
	s := &c.shards[memoShardIndex(key)]
	s.mu.Lock()
	if e, ok := s.entries[memoCacheKey{sq: sq, ctx: string(key)}]; ok {
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
	s.entries[memoCacheKey{sq: sq, ctx: string(key)}] = e
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
