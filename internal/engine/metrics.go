// Session-level metrics: cumulative counters across every query a
// session runs, exportable as expvar-style JSON and Prometheus text.
//
// Every series is declared once, on the snapshot field that carries it:
// its json tag names it in JSON and msql_stats.metrics, and its
// `prom:"<name>,counter|gauge|histogram[,seconds]" help:"<text>"` tag
// names it in the Prometheus exposition, which Prometheus derives by
// walking the snapshot. A field without a prom tag is JSON-only.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/rollup"
)

// Metrics accumulates session-wide execution counters. Every update
// holds mu (the histograms are lock-free), so concurrent queries on one
// session aggregate exactly and a snapshot sees them all at one point.
type Metrics struct {
	// planHist / execHist distribute per-statement planning and
	// execution latencies (exported as Prometheus histograms and the
	// PlanLatency/ExecLatency snapshot sections).
	planHist exec.Histogram
	execHist exec.Histogram

	mu sync.Mutex
	// sums holds the snapshot's cumulative top-level counters; the
	// ratio, latencies and sections are filled in when it is copied.
	sums       MetricsSnapshot
	byStrategy map[string]*stratCounters
	// serverFn, when set, supplies a point-in-time copy of the serving
	// layer's counters (the msqld front end registers itself here) so
	// one Metrics snapshot covers both engine and server.
	serverFn func() ServerCounters
	// shardFn supplies the distributed coordinator's counters (a
	// dist.Coordinator registers itself here) so one snapshot covers the
	// whole scatter-gather failure envelope.
	shardFn func() ShardCounters
}

// ShardCounters is the distributed coordinator's slice of a metrics
// snapshot: the scatter-gather failure envelope. ShardsTotal and
// BreakersOpen are gauges; the rest are cumulative.
type ShardCounters struct {
	// Scatters counts shard fan-out calls issued (one per shard per
	// distributed query phase).
	Scatters int64 `json:"scatters" prom:"msql_shard_scatters_total,counter" help:"Shard fan-out calls issued by the coordinator."`
	// Retries counts transport-level retry attempts beyond the first try.
	Retries int64 `json:"retries" prom:"msql_shard_retries_total,counter" help:"Shard call retry attempts beyond the first try."`
	// Hedges counts hedged requests sent to a second endpoint after the
	// p99-based delay.
	Hedges int64 `json:"hedges" prom:"msql_shard_hedges_total,counter" help:"Hedged requests sent to a second endpoint."`
	// Failovers counts shard calls answered by an endpoint other than
	// the first one tried.
	Failovers int64 `json:"failovers" prom:"msql_shard_failovers_total,counter" help:"Shard calls answered by a non-primary endpoint."`
	// BreakerOpens counts closed→open circuit-breaker transitions.
	BreakerOpens int64 `json:"breaker_opens" prom:"msql_shard_breaker_open_total,counter" help:"Circuit-breaker closed-to-open transitions."`
	// ShardErrors counts queries that failed with ErrShardUnavailable.
	ShardErrors int64 `json:"shard_errors" prom:"msql_shard_errors_total,counter" help:"Queries failed with a structured shard-unavailable error."`
	// ShardsTotal and BreakersOpen describe the topology right now.
	ShardsTotal  int64 `json:"shards_total" prom:"msql_shard_count,gauge" help:"Shards in the topology."`
	BreakersOpen int64 `json:"breakers_open" prom:"msql_shard_breakers_open,gauge" help:"Endpoints whose breaker is currently open."`
}

// SetShardSource registers (or with nil removes) the distributed
// coordinator's counter source; the snapshot calls it to fill the
// Shards section.
func (m *Metrics) SetShardSource(fn func() ShardCounters) {
	m.mu.Lock()
	m.shardFn = fn
	m.mu.Unlock()
}

// StorageCounters is the durability layer's slice of a metrics
// snapshot: write-ahead log, checkpoint, and recovery counters. WALSeq,
// WALDurableSeq, and WALBytes are gauges; the rest are cumulative.
type StorageCounters struct {
	WALAppends       int64  `json:"wal_appends" prom:"msql_wal_appends_total,counter" help:"Records appended to the write-ahead log."`
	WALAppendBytes   int64  `json:"wal_append_bytes" prom:"msql_wal_append_bytes_total,counter" help:"Framed bytes appended to the write-ahead log."`
	WALFsyncs        int64  `json:"wal_fsyncs" prom:"msql_wal_fsyncs_total,counter" help:"Fsync syscalls on the log (group commit batches appends)."`
	WALBytes         int64  `json:"wal_bytes" prom:"msql_wal_bytes,gauge" help:"Current size of the write-ahead log."`
	WALSeq           int64  `json:"wal_seq" prom:"msql_wal_seq,gauge" help:"Last assigned WAL sequence number."`
	WALDurableSeq    int64  `json:"wal_durable_seq" prom:"msql_wal_durable_seq,gauge" help:"Last WAL sequence known flushed to disk."`
	Checkpoints      int64  `json:"checkpoints" prom:"msql_checkpoints_total,counter" help:"Checkpoint snapshots completed."`
	CheckpointNs     int64  `json:"checkpoint_ns" prom:"msql_checkpoint_seconds_total,counter,seconds" help:"Time spent writing checkpoints."`
	LastCheckpointNs int64  `json:"last_checkpoint_ns" prom:"msql_last_checkpoint_seconds,gauge,seconds" help:"Duration of the most recent checkpoint."`
	RecoveryNs       int64  `json:"recovery_ns" prom:"msql_recovery_seconds,gauge,seconds" help:"Time the last crash recovery took."`
	RecoveredRecords int64  `json:"recovered_records" prom:"msql_recovered_records_total,counter" help:"Log records replayed by the last recovery."`
	TornTailBytes    int64  `json:"torn_tail_bytes" prom:"msql_torn_tail_bytes_total,counter" help:"Trailing log bytes discarded as torn by the last recovery."`
	SyncPolicy       string `json:"sync_policy"`
}

// ServerCounters is the serving layer's slice of a metrics snapshot:
// admission-control and drain counters published by a query server
// sitting in front of the session. Inflight and Queued are gauges; the
// rest are cumulative counters.
type ServerCounters struct {
	Inflight    int64 `json:"inflight" prom:"msql_server_inflight,gauge" help:"Queries executing right now."`
	Queued      int64 `json:"queued" prom:"msql_server_queued,gauge" help:"Requests waiting for an execution slot."`
	Accepted    int64 `json:"accepted" prom:"msql_server_requests_total,counter" help:"Query requests received."`
	Admitted    int64 `json:"admitted" prom:"msql_server_admitted_total,counter" help:"Requests admitted to execution."`
	Shed        int64 `json:"shed" prom:"msql_server_shed_total,counter" help:"Requests shed by overload control (HTTP 429)."`
	Rejected    int64 `json:"rejected_draining" prom:"msql_server_rejected_draining_total,counter" help:"Requests rejected while draining (HTTP 503)."`
	Drained     int64 `json:"drained" prom:"msql_server_drained_total,counter" help:"Inflight queries completed during graceful drain."`
	DrainKilled int64 `json:"drain_killed" prom:"msql_server_drain_killed_total,counter" help:"Inflight queries canceled at the drain deadline."`
	Panics      int64 `json:"panics" prom:"msql_server_panics_total,counter" help:"Request handler panics recovered."`
	DrainNs     int64 `json:"drain_ns" prom:"msql_server_drain_seconds,gauge,seconds" help:"Time the last graceful drain took."`
}

// SetServerSource registers (or with nil removes) the serving layer's
// counter source; the snapshot calls it to fill the Server section.
func (m *Metrics) SetServerSource(fn func() ServerCounters) {
	m.mu.Lock()
	m.serverFn = fn
	m.mu.Unlock()
}

// stratCounters is the per-strategy slice of the registry.
type stratCounters struct {
	Queries int64 `json:"queries" prom:"msql_strategy_queries_total,counter" help:"Queries executed per strategy."`
	Errors  int64 `json:"errors" prom:"msql_strategy_errors_total,counter" help:"Failed statements per strategy."`
	PlanNs  int64 `json:"plan_ns" prom:"msql_plan_seconds_total,counter,seconds" help:"Time spent binding and optimizing, per strategy."`
	ExecNs  int64 `json:"exec_ns" prom:"msql_exec_seconds_total,counter,seconds" help:"Time spent executing, per strategy."`
}

func newMetrics() *Metrics {
	return &Metrics{byStrategy: map[string]*stratCounters{}}
}

// recordQuery folds one finished query's executor counters into the
// registry.
func (m *Metrics) recordQuery(strategy string, rows int, st exec.Stats, planNs, execNs int64) {
	m.planHist.Observe(planNs)
	m.execHist.Observe(execNs)
	m.mu.Lock()
	t := &m.sums
	t.Queries++
	t.RowsReturned += int64(rows)
	t.RowsScanned += st.RowsScanned
	t.SubqueryEvals += st.SubqueryEvals
	t.CacheHits += st.SubqueryCacheHits
	t.ParallelFanouts += st.ParallelFanouts
	t.VecBatches += st.VecBatches
	t.VecKernelRows += st.VecKernelRows
	t.VecFallbackRows += st.VecFallbackRows
	t.PlanNs += planNs
	t.ExecNs += execNs
	sc := m.strategy(strategy)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sums.Errors++
	switch {
	case errors.Is(err, exec.CodeCanceled):
		m.sums.Canceled++
	case errors.Is(err, exec.CodeTimeout):
		m.sums.Timeouts++
	case errors.Is(err, exec.CodeResourceExhausted):
		m.sums.LimitTrips++
	}
	m.strategy(strategy).Errors++
}

// strategy returns the named strategy's counters, creating them on
// first use. Callers hold mu.
func (m *Metrics) strategy(name string) *stratCounters {
	sc := m.byStrategy[name]
	if sc == nil {
		sc = &stratCounters{}
		m.byStrategy[name] = sc
	}
	return sc
}

// MetricsSnapshot is a point-in-time copy of the registry. Its field
// order is the order of the JSON keys and of the Prometheus families.
type MetricsSnapshot struct {
	Queries         int64                    `json:"queries" prom:"msql_queries_total,counter" help:"Queries executed."`
	Errors          int64                    `json:"errors" prom:"msql_query_errors_total,counter" help:"Queries that returned an error."`
	Canceled        int64                    `json:"canceled" prom:"msql_queries_canceled_total,counter" help:"Statements ended by caller cancellation."`
	Timeouts        int64                    `json:"timeouts" prom:"msql_query_timeouts_total,counter" help:"Statements ended by a deadline or Limits.Timeout."`
	LimitTrips      int64                    `json:"limit_trips" prom:"msql_limit_trips_total,counter" help:"Statements ended by a resource governor limit."`
	RowsReturned    int64                    `json:"rows_returned" prom:"msql_rows_returned_total,counter" help:"Rows returned to clients."`
	RowsScanned     int64                    `json:"rows_scanned" prom:"msql_rows_scanned_total,counter" help:"Rows produced by Scan operators."`
	SubqueryEvals   int64                    `json:"subquery_evals" prom:"msql_subquery_evals_total,counter" help:"Actual subquery plan executions."`
	CacheHits       int64                    `json:"cache_hits" prom:"msql_subquery_cache_hits_total,counter" help:"Subquery evaluations served from the memo cache."`
	CacheHitRatio   float64                  `json:"cache_hit_ratio" prom:"msql_cache_hit_ratio,gauge" help:"Fraction of subquery evaluations served from cache."`
	ParallelFanouts int64                    `json:"parallel_fanouts" prom:"msql_parallel_fanouts_total,counter" help:"Operator executions that fanned out to multiple workers."`
	VecBatches      int64                    `json:"vec_batches" prom:"msql_vec_batches_total,counter" help:"Columnar batches processed by the vectorized engine."`
	VecKernelRows   int64                    `json:"vec_kernel_rows" prom:"msql_vec_kernel_rows_total,counter" help:"Expression evaluations done by batch kernels."`
	VecFallbackRows int64                    `json:"vec_fallback_rows" prom:"msql_vec_fallback_rows_total,counter" help:"Rows the vectorized engine handed back to the row evaluator."`
	PlanNs          int64                    `json:"plan_ns"`
	ExecNs          int64                    `json:"exec_ns"`
	PlanLatency     exec.HistogramSnapshot   `json:"plan_latency" prom:"msql_plan_duration_seconds,histogram,seconds" help:"Per-statement planning latency."`
	ExecLatency     exec.HistogramSnapshot   `json:"exec_latency" prom:"msql_exec_duration_seconds,histogram,seconds" help:"Per-statement execution latency."`
	ByStrategy      map[string]stratCounters `json:"by_strategy" label:"strategy"`
	// PlanCache carries the prepared-statement plan cache's counters.
	PlanCache *PlanCacheCounters `json:"plan_cache,omitempty"`
	// Server carries the serving layer's counters when a query server
	// has registered itself (SetServerSource); nil otherwise.
	Server *ServerCounters `json:"server,omitempty"`
	// Storage carries the durability layer's counters when the session
	// writes through a WAL; nil otherwise.
	Storage *StorageCounters `json:"storage,omitempty"`
	// Shards carries the distributed coordinator's counters when one has
	// registered itself (SetShardSource); nil otherwise.
	Shards *ShardCounters `json:"shards,omitempty"`
	// Rollups carries the rollup lattice's counters when rollups are
	// enabled; nil otherwise.
	Rollups *rollup.Counters `json:"rollups,omitempty"`
}

// MetricsSnapshot returns a consistent copy of the session's metrics:
// the registry's own counters, the plan cache, WAL and lattice sections
// read from the session's own stores, and the server and shard sections
// from their registered sources. It never takes the session mutex, so a
// statement scanning msql_stats.metrics cannot deadlock against the
// statement machinery running it.
func (s *Session) MetricsSnapshot() MetricsSnapshot {
	m := s.metrics
	m.mu.Lock()
	snap := m.sums
	snap.ByStrategy = make(map[string]stratCounters, len(m.byStrategy))
	for k, v := range m.byStrategy {
		snap.ByStrategy[k] = *v
	}
	serverFn, shardFn := m.serverFn, m.shardFn
	m.mu.Unlock()
	snap.PlanLatency = m.planHist.Snapshot()
	snap.ExecLatency = m.execHist.Snapshot()
	if total := snap.SubqueryEvals + snap.CacheHits; total > 0 {
		snap.CacheHitRatio = float64(snap.CacheHits) / float64(total)
	}
	pc := s.plans.counters()
	snap.PlanCache = &pc
	if serverFn != nil {
		sc := serverFn()
		snap.Server = &sc
	}
	if s.dur != nil {
		st := storageCounters(s.dur.wal)
		snap.Storage = &st
	}
	if shardFn != nil {
		sh := shardFn()
		snap.Shards = &sh
	}
	if l := s.rollups.Load(); l != nil {
		rc := l.Stats()
		snap.Rollups = &rc
	}
	return snap
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
// format: one family per prom-tagged field, in field order. Strategy
// labels are emitted in sorted order so the output is deterministic.
func (s MetricsSnapshot) Prometheus() string {
	var sb strings.Builder
	writeFamilies(&sb, reflect.ValueOf(s))
	return sb.String()
}

// series is one Prometheus family as a field's prom and help tags
// declare it; seconds marks a nanosecond field exported in seconds.
type series struct {
	name, kind, help string
	seconds          bool
}

// seriesOf reads f's declaration; ok is false for a JSON-only field.
func seriesOf(f reflect.StructField) (series, bool) {
	tag, ok := f.Tag.Lookup("prom")
	name, rest, _ := strings.Cut(tag, ",")
	kind, unit, _ := strings.Cut(rest, ",")
	return series{name: name, kind: kind, help: f.Tag.Get("help"), seconds: unit == "seconds"}, ok
}

// writeFamilies writes the families the fields of struct v declare:
// nil section pointers are skipped and others descended into, and a map
// tagged label:"<name>" gives one family per field of its value struct
// with one sample per key.
func writeFamilies(sb *strings.Builder, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if fv.Kind() == reflect.Pointer {
			if !fv.IsNil() {
				writeFamilies(sb, fv.Elem())
			}
			continue
		}
		if label := f.Tag.Get("label"); label != "" {
			writeLabelled(sb, label, fv)
		} else if d, ok := seriesOf(f); ok {
			d.header(sb)
			d.sample(sb, "", fv)
		}
	}
}

// writeLabelled writes the families of a labelled map, keys sorted.
func writeLabelled(sb *strings.Builder, label string, m reflect.Value) {
	keys := make([]string, 0, m.Len())
	for _, k := range m.MapKeys() {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	vt := m.Type().Elem()
	for j := 0; j < vt.NumField(); j++ {
		d, ok := seriesOf(vt.Field(j))
		if !ok {
			continue
		}
		d.header(sb)
		for _, k := range keys {
			d.sample(sb, fmt.Sprintf("{%s=%q}", label, k), m.MapIndex(reflect.ValueOf(k)).Field(j))
		}
	}
}

func (d series) header(sb *strings.Builder) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.kind)
}

// scale converts a nanosecond value to the family's unit.
func (d series) scale(ns int64) float64 {
	if d.seconds {
		return float64(ns) / 1e9
	}
	return float64(ns)
}

// sample writes v's sample line, or a histogram's bucket, sum and count
// lines.
func (d series) sample(sb *strings.Builder, labels string, v reflect.Value) {
	switch x := v.Interface().(type) {
	case exec.HistogramSnapshot:
		x.EachBucket(func(upperNs, cum int64) {
			fmt.Fprintf(sb, "%s_bucket{le=\"%g\"} %d\n", d.name, d.scale(upperNs), cum)
		})
		fmt.Fprintf(sb, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			d.name, x.Count, d.name, d.scale(x.SumNs), d.name, x.Count)
	case float64:
		fmt.Fprintf(sb, "%s%s %g\n", d.name, labels, x)
	case int64:
		if d.seconds {
			fmt.Fprintf(sb, "%s%s %g\n", d.name, labels, d.scale(x))
		} else {
			fmt.Fprintf(sb, "%s%s %d\n", d.name, labels, x)
		}
	}
}
