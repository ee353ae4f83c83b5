// Session-level metrics: cumulative counters across every query a
// session runs, exportable as expvar-style JSON and Prometheus text.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/rollup"
)

// Metrics accumulates session-wide execution counters. All updates are
// atomic (or mutex-guarded for the per-strategy map), so concurrent
// queries on one session aggregate exactly.
type Metrics struct {
	queries         int64
	errors          int64
	canceled        int64
	timeouts        int64
	limitTrips      int64
	rowsReturned    int64
	rowsScanned     int64
	subqueryEvals   int64
	cacheHits       int64
	parallelFanouts int64
	vecBatches      int64
	vecKernelRows   int64
	vecFallbackRows int64
	planNs          int64
	execNs          int64

	// planHist / execHist distribute per-statement planning and
	// execution latencies (exported as Prometheus histograms and the
	// PlanLatency/ExecLatency snapshot sections).
	planHist exec.Histogram
	execHist exec.Histogram

	mu         sync.Mutex
	byStrategy map[string]*stratCounters
	// serverFn, when set, supplies a point-in-time copy of the serving
	// layer's counters (the msqld front end registers itself here) so
	// one Metrics snapshot covers both engine and server.
	serverFn func() ServerCounters
	// planFn supplies the session plan cache's counters (registered by
	// engine.New) so snapshots cover prepared-statement caching too.
	planFn func() PlanCacheCounters
	// storageFn supplies the durability layer's counters (registered by
	// NewDurable) so snapshots cover WAL and checkpoint activity.
	storageFn func() StorageCounters
	// shardFn supplies the distributed coordinator's counters (a
	// dist.Coordinator registers itself here) so one snapshot covers the
	// whole scatter-gather failure envelope.
	shardFn func() ShardCounters
	// rollupFn supplies the rollup lattice's counters (registered by
	// SetRollups) so snapshots cover materialized-rollup activity.
	rollupFn func() rollup.Counters
}

// SetRollupSource registers (or with nil removes) the rollup lattice's
// counter source; Snapshot calls it to fill the Rollups section.
func (m *Metrics) SetRollupSource(fn func() rollup.Counters) {
	m.mu.Lock()
	m.rollupFn = fn
	m.mu.Unlock()
}

// ShardCounters is the distributed coordinator's slice of a metrics
// snapshot: the scatter-gather failure envelope. ShardsTotal and
// BreakersOpen are gauges; the rest are cumulative.
type ShardCounters struct {
	// Scatters counts shard fan-out calls issued (one per shard per
	// distributed query phase).
	Scatters int64 `json:"scatters"`
	// Retries counts transport-level retry attempts beyond the first try.
	Retries int64 `json:"retries"`
	// Hedges counts hedged requests sent to a second endpoint after the
	// p99-based delay.
	Hedges int64 `json:"hedges"`
	// Failovers counts shard calls answered by an endpoint other than
	// the first one tried.
	Failovers int64 `json:"failovers"`
	// BreakerOpens counts closed→open circuit-breaker transitions.
	BreakerOpens int64 `json:"breaker_opens"`
	// ShardErrors counts queries that failed with ErrShardUnavailable.
	ShardErrors int64 `json:"shard_errors"`
	// ShardsTotal and BreakersOpen describe the topology right now.
	ShardsTotal  int64 `json:"shards_total"`
	BreakersOpen int64 `json:"breakers_open"`
}

// SetShardSource registers (or with nil removes) the distributed
// coordinator's counter source; Snapshot calls it to fill the Shards
// section.
func (m *Metrics) SetShardSource(fn func() ShardCounters) {
	m.mu.Lock()
	m.shardFn = fn
	m.mu.Unlock()
}

// StorageCounters is the durability layer's slice of a metrics
// snapshot: write-ahead log, checkpoint, and recovery counters. WALSeq,
// WALDurableSeq, and WALBytes are gauges; the rest are cumulative.
type StorageCounters struct {
	WALAppends       int64  `json:"wal_appends"`
	WALAppendBytes   int64  `json:"wal_append_bytes"`
	WALFsyncs        int64  `json:"wal_fsyncs"`
	WALBytes         int64  `json:"wal_bytes"`
	WALSeq           int64  `json:"wal_seq"`
	WALDurableSeq    int64  `json:"wal_durable_seq"`
	Checkpoints      int64  `json:"checkpoints"`
	CheckpointNs     int64  `json:"checkpoint_ns"`
	LastCheckpointNs int64  `json:"last_checkpoint_ns"`
	RecoveryNs       int64  `json:"recovery_ns"`
	RecoveredRecords int64  `json:"recovered_records"`
	TornTailBytes    int64  `json:"torn_tail_bytes"`
	SyncPolicy       string `json:"sync_policy"`
}

// SetStorageSource registers (or with nil removes) the durability
// layer's counter source; Snapshot calls it to fill the Storage
// section.
func (m *Metrics) SetStorageSource(fn func() StorageCounters) {
	m.mu.Lock()
	m.storageFn = fn
	m.mu.Unlock()
}

// ServerCounters is the serving layer's slice of a metrics snapshot:
// admission-control and drain counters published by a query server
// sitting in front of the session. Inflight and Queued are gauges; the
// rest are cumulative counters.
type ServerCounters struct {
	Inflight    int64 `json:"inflight"`
	Queued      int64 `json:"queued"`
	Accepted    int64 `json:"accepted"`
	Admitted    int64 `json:"admitted"`
	Shed        int64 `json:"shed"`
	Rejected    int64 `json:"rejected_draining"`
	Drained     int64 `json:"drained"`
	DrainKilled int64 `json:"drain_killed"`
	Panics      int64 `json:"panics"`
	DrainNs     int64 `json:"drain_ns"`
}

// SetServerSource registers (or with nil removes) the serving layer's
// counter source; Snapshot calls it to fill the Server section.
func (m *Metrics) SetServerSource(fn func() ServerCounters) {
	m.mu.Lock()
	m.serverFn = fn
	m.mu.Unlock()
}

// SetPlanCacheSource registers (or with nil removes) the plan cache's
// counter source; Snapshot calls it to fill the PlanCache section.
func (m *Metrics) SetPlanCacheSource(fn func() PlanCacheCounters) {
	m.mu.Lock()
	m.planFn = fn
	m.mu.Unlock()
}

// stratCounters is the per-strategy slice of the registry.
type stratCounters struct {
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	PlanNs  int64 `json:"plan_ns"`
	ExecNs  int64 `json:"exec_ns"`
}

func newMetrics() *Metrics {
	return &Metrics{byStrategy: map[string]*stratCounters{}}
}

// recordQuery folds one finished query's executor counters into the
// registry.
func (m *Metrics) recordQuery(strategy string, rows int, st exec.Stats, planNs, execNs int64) {
	atomic.AddInt64(&m.queries, 1)
	atomic.AddInt64(&m.rowsReturned, int64(rows))
	atomic.AddInt64(&m.rowsScanned, st.RowsScanned)
	atomic.AddInt64(&m.subqueryEvals, st.SubqueryEvals)
	atomic.AddInt64(&m.cacheHits, st.SubqueryCacheHits)
	atomic.AddInt64(&m.parallelFanouts, st.ParallelFanouts)
	atomic.AddInt64(&m.vecBatches, st.VecBatches)
	atomic.AddInt64(&m.vecKernelRows, st.VecKernelRows)
	atomic.AddInt64(&m.vecFallbackRows, st.VecFallbackRows)
	atomic.AddInt64(&m.planNs, planNs)
	atomic.AddInt64(&m.execNs, execNs)
	m.planHist.Observe(planNs)
	m.execHist.Observe(execNs)
	m.mu.Lock()
	sc := m.byStrategy[strategy]
	if sc == nil {
		sc = &stratCounters{}
		m.byStrategy[strategy] = sc
	}
	sc.Queries++
	sc.PlanNs += planNs
	sc.ExecNs += execNs
	m.mu.Unlock()
}

// recordOutcome folds one failed statement into the registry,
// classifying cancellations, timeouts, and resource-limit trips by
// their error code, and attributing the error to the strategy that ran
// the statement (so "memo" failures are distinguishable from "naive"
// ones in the per-strategy series).
func (m *Metrics) recordOutcome(strategy string, err error) {
	if err == nil {
		return
	}
	atomic.AddInt64(&m.errors, 1)
	switch {
	case errors.Is(err, exec.CodeCanceled):
		atomic.AddInt64(&m.canceled, 1)
	case errors.Is(err, exec.CodeTimeout):
		atomic.AddInt64(&m.timeouts, 1)
	case errors.Is(err, exec.CodeResourceExhausted):
		atomic.AddInt64(&m.limitTrips, 1)
	}
	m.mu.Lock()
	sc := m.byStrategy[strategy]
	if sc == nil {
		sc = &stratCounters{}
		m.byStrategy[strategy] = sc
	}
	sc.Errors++
	m.mu.Unlock()
}

// MetricsSnapshot is a point-in-time copy of the registry.
type MetricsSnapshot struct {
	Queries         int64                    `json:"queries"`
	Errors          int64                    `json:"errors"`
	Canceled        int64                    `json:"canceled"`
	Timeouts        int64                    `json:"timeouts"`
	LimitTrips      int64                    `json:"limit_trips"`
	RowsReturned    int64                    `json:"rows_returned"`
	RowsScanned     int64                    `json:"rows_scanned"`
	SubqueryEvals   int64                    `json:"subquery_evals"`
	CacheHits       int64                    `json:"cache_hits"`
	CacheHitRatio   float64                  `json:"cache_hit_ratio"`
	ParallelFanouts int64                    `json:"parallel_fanouts"`
	VecBatches      int64                    `json:"vec_batches"`
	VecKernelRows   int64                    `json:"vec_kernel_rows"`
	VecFallbackRows int64                    `json:"vec_fallback_rows"`
	PlanNs          int64                    `json:"plan_ns"`
	ExecNs          int64                    `json:"exec_ns"`
	PlanLatency     exec.HistogramSnapshot   `json:"plan_latency"`
	ExecLatency     exec.HistogramSnapshot   `json:"exec_latency"`
	ByStrategy      map[string]stratCounters `json:"by_strategy"`
	// PlanCache carries the prepared-statement plan cache's counters.
	PlanCache *PlanCacheCounters `json:"plan_cache,omitempty"`
	// Server carries the serving layer's counters when a query server
	// has registered itself (SetServerSource); nil otherwise.
	Server *ServerCounters `json:"server,omitempty"`
	// Storage carries the durability layer's counters when the session
	// writes through a WAL (SetStorageSource); nil otherwise.
	Storage *StorageCounters `json:"storage,omitempty"`
	// Shards carries the distributed coordinator's counters when one has
	// registered itself (SetShardSource); nil otherwise.
	Shards *ShardCounters `json:"shards,omitempty"`
	// Rollups carries the rollup lattice's counters when rollups are
	// enabled (SetRollupSource); nil otherwise.
	Rollups *rollup.Counters `json:"rollups,omitempty"`
}

// Snapshot returns a consistent copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Queries:         atomic.LoadInt64(&m.queries),
		Errors:          atomic.LoadInt64(&m.errors),
		Canceled:        atomic.LoadInt64(&m.canceled),
		Timeouts:        atomic.LoadInt64(&m.timeouts),
		LimitTrips:      atomic.LoadInt64(&m.limitTrips),
		RowsReturned:    atomic.LoadInt64(&m.rowsReturned),
		RowsScanned:     atomic.LoadInt64(&m.rowsScanned),
		SubqueryEvals:   atomic.LoadInt64(&m.subqueryEvals),
		CacheHits:       atomic.LoadInt64(&m.cacheHits),
		ParallelFanouts: atomic.LoadInt64(&m.parallelFanouts),
		VecBatches:      atomic.LoadInt64(&m.vecBatches),
		VecKernelRows:   atomic.LoadInt64(&m.vecKernelRows),
		VecFallbackRows: atomic.LoadInt64(&m.vecFallbackRows),
		PlanNs:          atomic.LoadInt64(&m.planNs),
		ExecNs:          atomic.LoadInt64(&m.execNs),
		PlanLatency:     m.planHist.Snapshot(),
		ExecLatency:     m.execHist.Snapshot(),
		ByStrategy:      map[string]stratCounters{},
	}
	if total := s.SubqueryEvals + s.CacheHits; total > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(total)
	}
	m.mu.Lock()
	for k, v := range m.byStrategy {
		s.ByStrategy[k] = *v
	}
	serverFn, planFn, storageFn, shardFn, rollupFn := m.serverFn, m.planFn, m.storageFn, m.shardFn, m.rollupFn
	m.mu.Unlock()
	if planFn != nil {
		pc := planFn()
		s.PlanCache = &pc
	}
	if serverFn != nil {
		sc := serverFn()
		s.Server = &sc
	}
	if storageFn != nil {
		st := storageFn()
		s.Storage = &st
	}
	if shardFn != nil {
		sh := shardFn()
		s.Shards = &sh
	}
	if rollupFn != nil {
		rc := rollupFn()
		s.Rollups = &rc
	}
	return s
}

// JSON renders the snapshot as expvar-style indented JSON.
func (s MetricsSnapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format. Strategy labels are emitted in sorted order so the output is
// deterministic.
func (s MetricsSnapshot) Prometheus() string {
	var sb strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("msql_queries_total", "Queries executed.", s.Queries)
	counter("msql_query_errors_total", "Queries that returned an error.", s.Errors)
	counter("msql_queries_canceled_total", "Statements ended by caller cancellation.", s.Canceled)
	counter("msql_query_timeouts_total", "Statements ended by a deadline or Limits.Timeout.", s.Timeouts)
	counter("msql_limit_trips_total", "Statements ended by a resource governor limit.", s.LimitTrips)
	counter("msql_rows_returned_total", "Rows returned to clients.", s.RowsReturned)
	counter("msql_rows_scanned_total", "Rows produced by Scan operators.", s.RowsScanned)
	counter("msql_subquery_evals_total", "Actual subquery plan executions.", s.SubqueryEvals)
	counter("msql_subquery_cache_hits_total", "Subquery evaluations served from the memo cache.", s.CacheHits)
	counter("msql_parallel_fanouts_total", "Operator executions that fanned out to multiple workers.", s.ParallelFanouts)
	counter("msql_vec_batches_total", "Columnar batches processed by the vectorized engine.", s.VecBatches)
	counter("msql_vec_kernel_rows_total", "Expression evaluations done by batch kernels.", s.VecKernelRows)
	counter("msql_vec_fallback_rows_total", "Rows the vectorized engine handed back to the row evaluator.", s.VecFallbackRows)
	fmt.Fprintf(&sb, "# HELP msql_cache_hit_ratio Fraction of subquery evaluations served from cache.\n# TYPE msql_cache_hit_ratio gauge\nmsql_cache_hit_ratio %g\n", s.CacheHitRatio)
	histogram := func(name, help string, h exec.HistogramSnapshot) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		h.EachBucket(func(upperNs, cum int64) {
			fmt.Fprintf(&sb, "%s_bucket{le=\"%g\"} %d\n", name, float64(upperNs)/1e9, cum)
		})
		fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&sb, "%s_sum %g\n", name, float64(h.SumNs)/1e9)
		fmt.Fprintf(&sb, "%s_count %d\n", name, h.Count)
	}
	histogram("msql_plan_duration_seconds", "Per-statement planning latency.", s.PlanLatency)
	histogram("msql_exec_duration_seconds", "Per-statement execution latency.", s.ExecLatency)
	if pc := s.PlanCache; pc != nil {
		counter("msql_plan_cache_hits_total", "Prepared executions served from the plan cache.", pc.Hits)
		counter("msql_plan_cache_misses_total", "Prepared executions that had to plan.", pc.Misses)
		counter("msql_plan_cache_evictions_total", "Plan-cache entries evicted by the LRU cap.", pc.Evictions)
		counter("msql_plan_cache_invalidations_total", "Plan-cache entries dropped after DDL or data changes.", pc.Invalidations)
		counter("msql_plan_cache_bypasses_total", "Prepared executions that skipped the plan cache (volatile or disabled).", pc.Bypasses)
		counter("msql_plan_cache_memo_hits_total", "Prepared executions answered from an entry's identical-binding result memo.", pc.MemoHits)
		fmt.Fprintf(&sb, "# HELP msql_plan_cache_entries Plans currently cached.\n# TYPE msql_plan_cache_entries gauge\nmsql_plan_cache_entries %d\n", pc.Entries)
	}

	strategies := make([]string, 0, len(s.ByStrategy))
	for k := range s.ByStrategy {
		strategies = append(strategies, k)
	}
	sort.Strings(strategies)
	sb.WriteString("# HELP msql_strategy_queries_total Queries executed per strategy.\n# TYPE msql_strategy_queries_total counter\n")
	for _, k := range strategies {
		fmt.Fprintf(&sb, "msql_strategy_queries_total{strategy=%q} %d\n", k, s.ByStrategy[k].Queries)
	}
	sb.WriteString("# HELP msql_strategy_errors_total Failed statements per strategy.\n# TYPE msql_strategy_errors_total counter\n")
	for _, k := range strategies {
		fmt.Fprintf(&sb, "msql_strategy_errors_total{strategy=%q} %d\n", k, s.ByStrategy[k].Errors)
	}
	sb.WriteString("# HELP msql_plan_seconds_total Time spent binding and optimizing, per strategy.\n# TYPE msql_plan_seconds_total counter\n")
	for _, k := range strategies {
		fmt.Fprintf(&sb, "msql_plan_seconds_total{strategy=%q} %g\n", k, float64(s.ByStrategy[k].PlanNs)/1e9)
	}
	sb.WriteString("# HELP msql_exec_seconds_total Time spent executing, per strategy.\n# TYPE msql_exec_seconds_total counter\n")
	for _, k := range strategies {
		fmt.Fprintf(&sb, "msql_exec_seconds_total{strategy=%q} %g\n", k, float64(s.ByStrategy[k].ExecNs)/1e9)
	}
	if sv := s.Server; sv != nil {
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		gauge("msql_server_inflight", "Queries executing right now.", sv.Inflight)
		gauge("msql_server_queued", "Requests waiting for an execution slot.", sv.Queued)
		counter("msql_server_requests_total", "Query requests received.", sv.Accepted)
		counter("msql_server_admitted_total", "Requests admitted to execution.", sv.Admitted)
		counter("msql_server_shed_total", "Requests shed by overload control (HTTP 429).", sv.Shed)
		counter("msql_server_rejected_draining_total", "Requests rejected while draining (HTTP 503).", sv.Rejected)
		counter("msql_server_drained_total", "Inflight queries completed during graceful drain.", sv.Drained)
		counter("msql_server_drain_killed_total", "Inflight queries canceled at the drain deadline.", sv.DrainKilled)
		counter("msql_server_panics_total", "Request handler panics recovered.", sv.Panics)
		fmt.Fprintf(&sb, "# HELP msql_server_drain_seconds Time the last graceful drain took.\n# TYPE msql_server_drain_seconds gauge\nmsql_server_drain_seconds %g\n", float64(sv.DrainNs)/1e9)
	}
	if st := s.Storage; st != nil {
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		counter("msql_wal_appends_total", "Records appended to the write-ahead log.", st.WALAppends)
		counter("msql_wal_append_bytes_total", "Framed bytes appended to the write-ahead log.", st.WALAppendBytes)
		counter("msql_wal_fsyncs_total", "Fsync syscalls on the log (group commit batches appends).", st.WALFsyncs)
		counter("msql_checkpoints_total", "Checkpoint snapshots completed.", st.Checkpoints)
		gauge("msql_wal_bytes", "Current size of the write-ahead log.", st.WALBytes)
		gauge("msql_wal_seq", "Last assigned WAL sequence number.", st.WALSeq)
		gauge("msql_wal_durable_seq", "Last WAL sequence known flushed to disk.", st.WALDurableSeq)
		fmt.Fprintf(&sb, "# HELP msql_checkpoint_seconds_total Time spent writing checkpoints.\n# TYPE msql_checkpoint_seconds_total counter\nmsql_checkpoint_seconds_total %g\n", float64(st.CheckpointNs)/1e9)
		fmt.Fprintf(&sb, "# HELP msql_last_checkpoint_seconds Duration of the most recent checkpoint.\n# TYPE msql_last_checkpoint_seconds gauge\nmsql_last_checkpoint_seconds %g\n", float64(st.LastCheckpointNs)/1e9)
		fmt.Fprintf(&sb, "# HELP msql_recovery_seconds Time the last crash recovery took.\n# TYPE msql_recovery_seconds gauge\nmsql_recovery_seconds %g\n", float64(st.RecoveryNs)/1e9)
		counter("msql_recovered_records_total", "Log records replayed by the last recovery.", st.RecoveredRecords)
		counter("msql_torn_tail_bytes_total", "Trailing log bytes discarded as torn by the last recovery.", st.TornTailBytes)
	}
	if sh := s.Shards; sh != nil {
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		counter("msql_shard_scatters_total", "Shard fan-out calls issued by the coordinator.", sh.Scatters)
		counter("msql_shard_retries_total", "Shard call retry attempts beyond the first try.", sh.Retries)
		counter("msql_shard_hedges_total", "Hedged requests sent to a second endpoint.", sh.Hedges)
		counter("msql_shard_failovers_total", "Shard calls answered by a non-primary endpoint.", sh.Failovers)
		counter("msql_shard_breaker_open_total", "Circuit-breaker closed-to-open transitions.", sh.BreakerOpens)
		counter("msql_shard_errors_total", "Queries failed with a structured shard-unavailable error.", sh.ShardErrors)
		gauge("msql_shard_count", "Shards in the topology.", sh.ShardsTotal)
		gauge("msql_shard_breakers_open", "Endpoints whose breaker is currently open.", sh.BreakersOpen)
	}
	if rc := s.Rollups; rc != nil {
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		counter("msql_rollup_hits_total", "Aggregate executions answered from the rollup lattice.", rc.Hits)
		counter("msql_rollup_misses_total", "Lattice consultations that fell back to direct execution.", rc.Misses)
		counter("msql_rollup_builds_total", "Rollup lattice nodes materialized.", rc.Builds)
		counter("msql_rollup_rebuilds_total", "Dirty rollup groups rebuilt lazily from base rows.", rc.Rebuilds)
		counter("msql_rollup_incremental_rows_total", "Insert delta rows folded into rollup states in place.", rc.IncrementalRows)
		counter("msql_rollup_invalidations_total", "Rollup nodes reset by TRUNCATE or dropped by DDL.", rc.Invalidations)
		gauge("msql_rollup_nodes", "Rollup lattice nodes currently materialized.", rc.Nodes)
		gauge("msql_rollup_groups", "Groups currently materialized across all rollup nodes.", rc.Groups)
		gauge("msql_rollup_dirty_groups", "Materialized groups currently awaiting lazy rebuild.", rc.DirtyGroups)
	}
	return sb.String()
}
