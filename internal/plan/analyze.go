package plan

// This file is the plan half of the observability layer: per-operator
// runtime metrics (OpMetrics) and the EXPLAIN ANALYZE renderer. The
// executor owns the collection side (internal/exec.Profile implements
// MetricsSource); the plan package owns the struct and the rendering so
// that every layer above can annotate a plan tree without importing the
// executor.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpMetrics accumulates runtime counters for one plan operator (or one
// Subquery expression). All fields are updated with atomic operations so
// they stay exact when the executor fans out over worker goroutines.
//
// Wall time is inclusive (children are counted inside their parent) and
// is summed across every execution of the operator: a subquery plan
// evaluated once per evaluation context, possibly on several workers at
// once, reports the total work done, which can exceed elapsed time.
type OpMetrics struct {
	// Calls counts executions of the operator (loops): 1 for top-level
	// operators, one per evaluation for operators inside subquery plans.
	Calls int64
	// RowsOut is the total number of rows produced across all calls.
	RowsOut int64
	// WallNs is the total inclusive wall time across all calls.
	WallNs int64
	// MaxWorkers is the largest morsel/worker fan-out the operator used
	// (0 when it never went parallel).
	MaxWorkers int64
	// Evals counts actual subquery plan executions (Subquery only):
	// distinct evaluation contexts under the memo strategy.
	Evals int64
	// CacheHits counts evaluations served from the measure-context memo
	// cache (Subquery only).
	CacheHits int64
	// Batches counts columnar batches the operator processed on the
	// vectorized path (0 on the row path — rendering keys off it).
	Batches int64
	// KernelEvals counts expression-node evaluations done by batch
	// kernels; FallbackEvals counts rows handed back to the row-at-a-time
	// evaluator for expressions without a kernel.
	KernelEvals   int64
	FallbackEvals int64
	// Partitions is the number of buckets of the subquery's partition
	// index (Subquery only): non-zero when its contexts after the first
	// were answered from one hash-partitioned pass instead of one scan
	// each.
	Partitions int64
}

// Record adds one execution producing rows in ns nanoseconds.
func (m *OpMetrics) Record(rows int, ns int64) {
	atomic.AddInt64(&m.Calls, 1)
	atomic.AddInt64(&m.RowsOut, int64(rows))
	atomic.AddInt64(&m.WallNs, ns)
}

// NoteWorkers records a parallel fan-out of w workers.
func (m *OpMetrics) NoteWorkers(w int) {
	for {
		cur := atomic.LoadInt64(&m.MaxWorkers)
		if int64(w) <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&m.MaxWorkers, cur, int64(w)) {
			return
		}
	}
}

// AddBatch records one vectorized batch with its kernel/fallback
// expression-evaluation row counts.
func (m *OpMetrics) AddBatch(kernelEvals, fallbackEvals int64) {
	atomic.AddInt64(&m.Batches, 1)
	atomic.AddInt64(&m.KernelEvals, kernelEvals)
	atomic.AddInt64(&m.FallbackEvals, fallbackEvals)
}

// AddEval counts one actual subquery evaluation.
func (m *OpMetrics) AddEval() { atomic.AddInt64(&m.Evals, 1) }

// AddCacheHit counts one memo-cache-served evaluation.
func (m *OpMetrics) AddCacheHit() { atomic.AddInt64(&m.CacheHits, 1) }

// SetPartitions records that the subquery's contexts are served from a
// partition index with the given number of buckets.
func (m *OpMetrics) SetPartitions(buckets int) { atomic.StoreInt64(&m.Partitions, int64(buckets)) }

// Load returns a consistent-enough snapshot taken with atomic loads,
// safe to call while the plan is still executing.
func (m *OpMetrics) Load() OpMetrics {
	return OpMetrics{
		Calls:         atomic.LoadInt64(&m.Calls),
		RowsOut:       atomic.LoadInt64(&m.RowsOut),
		WallNs:        atomic.LoadInt64(&m.WallNs),
		MaxWorkers:    atomic.LoadInt64(&m.MaxWorkers),
		Evals:         atomic.LoadInt64(&m.Evals),
		CacheHits:     atomic.LoadInt64(&m.CacheHits),
		Batches:       atomic.LoadInt64(&m.Batches),
		KernelEvals:   atomic.LoadInt64(&m.KernelEvals),
		FallbackEvals: atomic.LoadInt64(&m.FallbackEvals),
		Partitions:    atomic.LoadInt64(&m.Partitions),
	}
}

// MetricsSource resolves the metrics collected for a node or a subquery
// expression; the executor's Profile implements it. A node is identified
// by its position: the subquery whose plan it belongs to (nil in the
// main plan) and the node itself, since plans share base-table scans.
type MetricsSource interface {
	NodeMetrics(in *Subquery, n Node) *OpMetrics
	SubqueryMetrics(*Subquery) *OpMetrics
}

// ExplainAnalyzeTree renders the plan annotated with the metrics in src:
// per operator rows out, loops, worker fan-out, and inclusive wall time;
// per subquery block, actual evaluations vs memo-cache hits.
func ExplainAnalyzeTree(n Node, src MetricsSource) string {
	var sb strings.Builder
	explainInto(&sb, nil, n, 0, src)
	return sb.String()
}

// annotateNode renders the metrics suffix for one operator line.
func annotateNode(m *OpMetrics) string {
	s := m.Load()
	var sb strings.Builder
	fmt.Fprintf(&sb, " (rows=%d", s.RowsOut)
	if s.Calls > 1 {
		fmt.Fprintf(&sb, " loops=%d", s.Calls)
	}
	if s.MaxWorkers > 1 {
		fmt.Fprintf(&sb, " workers=%d", s.MaxWorkers)
	}
	if s.Batches > 0 {
		// Average rows per batch follows from rows= and batches=; the
		// kernel/fallback split shows how much of the expression work
		// actually ran columnarly.
		fmt.Fprintf(&sb, " batches=%d kernel=%d fallback=%d", s.Batches, s.KernelEvals, s.FallbackEvals)
	}
	fmt.Fprintf(&sb, " time=%s)", time.Duration(s.WallNs))
	return sb.String()
}

// annotateSubquery renders the metrics suffix for one subquery block;
// partitioned=N follows the counts when the contexts after the first
// were served from an N-bucket partition of one pass over the input.
func annotateSubquery(m *OpMetrics) string {
	s := m.Load()
	out := fmt.Sprintf(" (evals=%d hits=%d)", s.Evals, s.CacheHits)
	if s.Partitions > 0 {
		out += fmt.Sprintf(" partitioned=%d", s.Partitions)
	}
	return out
}
